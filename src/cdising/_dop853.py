"""DOP853, the explicit Runge-Kutta method of order 8(5,3), in numpy only.

A step-for-step copy of scipy's ``solve_ivp(method="DOP853")`` (scipy
1.17.1, ``scipy/integrate/_ivp``) for what this package asks of it:
forward solves of a complex vector ODE at scalar tolerances, which read
their dense-output polynomial at given sample times as the loop passes
them, as ``t_eval`` does, and restart at given break times. One loop
advances B solves of one state length in lockstep, each with its own step
control (solve_lockstep; solve_ivp is B = 1). The chain's break is where
the ramp crosses the critical field g = 1: the thermodynamic drive has a
kink there (slopes +1/4 and -1/4), and an 8th-order step assumes a smooth
right-hand side, so a step that straddles the kink is rejected again and
again (Hairer, Norsett & Wanner, Solving ODEs I, on discontinuities). The
RHS comes in two halves: a clock of t alone, which the loop calls once per
step on the times of all its stages (of all its solves), and a state part,
called once per stage with the clock's rows. Every floating-point
operation runs in scipy's order on the same tableau, so each solve's
states, accepted and rejected steps, RHS evaluations (see solve_ivp) and
sampled values are bit-identical to scipy's solves of the composed RHS
over the segments between breaks. Unlike scipy, it takes rtol as given,
with no floor: callers check their tolerances. Importing scipy.integrate
for this one function costs more than the integrations of a typical run.
"""

from __future__ import annotations

import math
from operator import itemgetter
from typing import Callable, Sequence

import numpy as np

# The tableau below is copied from scipy/integrate/_ivp/dop853_coefficients.py
# of scipy 1.17.1, and the step loop follows scipy's rk.py and common.py;
# they are distributed under this license:
#
# Copyright (c) 2001-2002 Enthought, Inc. 2003, SciPy Developers.
# All rights reserved.
#
# Redistribution and use in source and binary forms, with or without
# modification, are permitted provided that the following conditions
# are met:
#
# 1. Redistributions of source code must retain the above copyright
#    notice, this list of conditions and the following disclaimer.
#
# 2. Redistributions in binary form must reproduce the above
#    copyright notice, this list of conditions and the following
#    disclaimer in the documentation and/or other materials provided
#    with the distribution.
#
# 3. Neither the name of the copyright holder nor the names of its
#    contributors may be used to endorse or promote products derived
#    from this software without specific prior written permission.
#
# THIS SOFTWARE IS PROVIDED BY THE COPYRIGHT HOLDERS AND CONTRIBUTORS
# "AS IS" AND ANY EXPRESS OR IMPLIED WARRANTIES, INCLUDING, BUT NOT
# LIMITED TO, THE IMPLIED WARRANTIES OF MERCHANTABILITY AND FITNESS FOR
# A PARTICULAR PURPOSE ARE DISCLAIMED. IN NO EVENT SHALL THE COPYRIGHT
# OWNER OR CONTRIBUTORS BE LIABLE FOR ANY DIRECT, INDIRECT, INCIDENTAL,
# SPECIAL, EXEMPLARY, OR CONSEQUENTIAL DAMAGES (INCLUDING, BUT NOT
# LIMITED TO, PROCUREMENT OF SUBSTITUTE GOODS OR SERVICES; LOSS OF USE,
# DATA, OR PROFITS; OR BUSINESS INTERRUPTION) HOWEVER CAUSED AND ON ANY
# THEORY OF LIABILITY, WHETHER IN CONTRACT, STRICT LIABILITY, OR TORT
# (INCLUDING NEGLIGENCE OR OTHERWISE) ARISING IN ANY WAY OUT OF THE USE
# OF THIS SOFTWARE, EVEN IF ADVISED OF THE POSSIBILITY OF SUCH DAMAGE.

N_STAGES = 12
N_STAGES_EXTENDED = 16
INTERPOLATOR_POWER = 7

C = np.array([0.0,
              0.526001519587677318785587544488e-01,
              0.789002279381515978178381316732e-01,
              0.118350341907227396726757197510,
              0.281649658092772603273242802490,
              0.333333333333333333333333333333,
              0.25,
              0.307692307692307692307692307692,
              0.651282051282051282051282051282,
              0.6,
              0.857142857142857142857142857142,
              1.0,
              1.0,
              0.1,
              0.2,
              0.777777777777777777777777777778])

A = np.zeros((N_STAGES_EXTENDED, N_STAGES_EXTENDED))
A[1, 0] = 5.26001519587677318785587544488e-2

A[2, 0] = 1.97250569845378994544595329183e-2
A[2, 1] = 5.91751709536136983633785987549e-2

A[3, 0] = 2.95875854768068491816892993775e-2
A[3, 2] = 8.87627564304205475450678981324e-2

A[4, 0] = 2.41365134159266685502369798665e-1
A[4, 2] = -8.84549479328286085344864962717e-1
A[4, 3] = 9.24834003261792003115737966543e-1

A[5, 0] = 3.7037037037037037037037037037e-2
A[5, 3] = 1.70828608729473871279604482173e-1
A[5, 4] = 1.25467687566822425016691814123e-1

A[6, 0] = 3.7109375e-2
A[6, 3] = 1.70252211019544039314978060272e-1
A[6, 4] = 6.02165389804559606850219397283e-2
A[6, 5] = -1.7578125e-2

A[7, 0] = 3.70920001185047927108779319836e-2
A[7, 3] = 1.70383925712239993810214054705e-1
A[7, 4] = 1.07262030446373284651809199168e-1
A[7, 5] = -1.53194377486244017527936158236e-2
A[7, 6] = 8.27378916381402288758473766002e-3

A[8, 0] = 6.24110958716075717114429577812e-1
A[8, 3] = -3.36089262944694129406857109825
A[8, 4] = -8.68219346841726006818189891453e-1
A[8, 5] = 2.75920996994467083049415600797e1
A[8, 6] = 2.01540675504778934086186788979e1
A[8, 7] = -4.34898841810699588477366255144e1

A[9, 0] = 4.77662536438264365890433908527e-1
A[9, 3] = -2.48811461997166764192642586468
A[9, 4] = -5.90290826836842996371446475743e-1
A[9, 5] = 2.12300514481811942347288949897e1
A[9, 6] = 1.52792336328824235832596922938e1
A[9, 7] = -3.32882109689848629194453265587e1
A[9, 8] = -2.03312017085086261358222928593e-2

A[10, 0] = -9.3714243008598732571704021658e-1
A[10, 3] = 5.18637242884406370830023853209
A[10, 4] = 1.09143734899672957818500254654
A[10, 5] = -8.14978701074692612513997267357
A[10, 6] = -1.85200656599969598641566180701e1
A[10, 7] = 2.27394870993505042818970056734e1
A[10, 8] = 2.49360555267965238987089396762
A[10, 9] = -3.0467644718982195003823669022

A[11, 0] = 2.27331014751653820792359768449
A[11, 3] = -1.05344954667372501984066689879e1
A[11, 4] = -2.00087205822486249909675718444
A[11, 5] = -1.79589318631187989172765950534e1
A[11, 6] = 2.79488845294199600508499808837e1
A[11, 7] = -2.85899827713502369474065508674
A[11, 8] = -8.87285693353062954433549289258
A[11, 9] = 1.23605671757943030647266201528e1
A[11, 10] = 6.43392746015763530355970484046e-1

A[12, 0] = 5.42937341165687622380535766363e-2
A[12, 5] = 4.45031289275240888144113950566
A[12, 6] = 1.89151789931450038304281599044
A[12, 7] = -5.8012039600105847814672114227
A[12, 8] = 3.1116436695781989440891606237e-1
A[12, 9] = -1.52160949662516078556178806805e-1
A[12, 10] = 2.01365400804030348374776537501e-1
A[12, 11] = 4.47106157277725905176885569043e-2

A[13, 0] = 5.61675022830479523392909219681e-2
A[13, 6] = 2.53500210216624811088794765333e-1
A[13, 7] = -2.46239037470802489917441475441e-1
A[13, 8] = -1.24191423263816360469010140626e-1
A[13, 9] = 1.5329179827876569731206322685e-1
A[13, 10] = 8.20105229563468988491666602057e-3
A[13, 11] = 7.56789766054569976138603589584e-3
A[13, 12] = -8.298e-3

A[14, 0] = 3.18346481635021405060768473261e-2
A[14, 5] = 2.83009096723667755288322961402e-2
A[14, 6] = 5.35419883074385676223797384372e-2
A[14, 7] = -5.49237485713909884646569340306e-2
A[14, 10] = -1.08347328697249322858509316994e-4
A[14, 11] = 3.82571090835658412954920192323e-4
A[14, 12] = -3.40465008687404560802977114492e-4
A[14, 13] = 1.41312443674632500278074618366e-1

A[15, 0] = -4.28896301583791923408573538692e-1
A[15, 5] = -4.69762141536116384314449447206
A[15, 6] = 7.68342119606259904184240953878
A[15, 7] = 4.06898981839711007970213554331
A[15, 8] = 3.56727187455281109270669543021e-1
A[15, 12] = -1.39902416515901462129418009734e-3
A[15, 13] = 2.9475147891527723389556272149
A[15, 14] = -9.15095847217987001081870187138


B = A[N_STAGES, :N_STAGES]
# the stage products weight complex stages: complex copies of the weights
# spare np.dot and np.matmul a cast on every call, and give the same sums
A_COMPLEX, B_COMPLEX = A.astype(complex), B.astype(complex)

E3 = np.zeros(N_STAGES + 1)
E3[:-1] = B.copy()
E3[0] -= 0.244094488188976377952755905512
E3[8] -= 0.733846688281611857341361741547
E3[11] -= 0.220588235294117647058823529412e-1

E5 = np.zeros(N_STAGES + 1)
E5[0] = 0.1312004499419488073250102996e-1
E5[5] = -0.1225156446376204440720569753e+1
E5[6] = -0.4957589496572501915214079952
E5[7] = 0.1664377182454986536961530415e+1
E5[8] = -0.3503288487499736816886487290
E5[9] = 0.3341791187130174790297318841
E5[10] = 0.8192320648511571246570742613e-1
E5[11] = -0.2235530786388629525884427845e-1

# the nodes of the stages a step evaluates, as fractions of h: stages 1-11
# and the last, at C[12] = 1, whose t + 1 * h is t + h; and the 3 extended
# stages of a step that holds a sample
STEP_C = C[1 : N_STAGES + 1]
EXTRA_C = C[N_STAGES + 1 :]

# First 3 coefficients are computed separately.
D = np.zeros((INTERPOLATOR_POWER - 3, N_STAGES_EXTENDED))
D[0, 0] = -0.84289382761090128651353491142e+1
D[0, 5] = 0.56671495351937776962531783590
D[0, 6] = -0.30689499459498916912797304727e+1
D[0, 7] = 0.23846676565120698287728149680e+1
D[0, 8] = 0.21170345824450282767155149946e+1
D[0, 9] = -0.87139158377797299206789907490
D[0, 10] = 0.22404374302607882758541771650e+1
D[0, 11] = 0.63157877876946881815570249290
D[0, 12] = -0.88990336451333310820698117400e-1
D[0, 13] = 0.18148505520854727256656404962e+2
D[0, 14] = -0.91946323924783554000451984436e+1
D[0, 15] = -0.44360363875948939664310572000e+1

D[1, 0] = 0.10427508642579134603413151009e+2
D[1, 5] = 0.24228349177525818288430175319e+3
D[1, 6] = 0.16520045171727028198505394887e+3
D[1, 7] = -0.37454675472269020279518312152e+3
D[1, 8] = -0.22113666853125306036270938578e+2
D[1, 9] = 0.77334326684722638389603898808e+1
D[1, 10] = -0.30674084731089398182061213626e+2
D[1, 11] = -0.93321305264302278729567221706e+1
D[1, 12] = 0.15697238121770843886131091075e+2
D[1, 13] = -0.31139403219565177677282850411e+2
D[1, 14] = -0.93529243588444783865713862664e+1
D[1, 15] = 0.35816841486394083752465898540e+2

D[2, 0] = 0.19985053242002433820987653617e+2
D[2, 5] = -0.38703730874935176555105901742e+3
D[2, 6] = -0.18917813819516756882830838328e+3
D[2, 7] = 0.52780815920542364900561016686e+3
D[2, 8] = -0.11573902539959630126141871134e+2
D[2, 9] = 0.68812326946963000169666922661e+1
D[2, 10] = -0.10006050966910838403183860980e+1
D[2, 11] = 0.77771377980534432092869265740
D[2, 12] = -0.27782057523535084065932004339e+1
D[2, 13] = -0.60196695231264120758267380846e+2
D[2, 14] = 0.84320405506677161018159903784e+2
D[2, 15] = 0.11992291136182789328035130030e+2

D[3, 0] = -0.25693933462703749003312586129e+2
D[3, 5] = -0.15418974869023643374053993627e+3
D[3, 6] = -0.23152937917604549567536039109e+3
D[3, 7] = 0.35763911791061412378285349910e+3
D[3, 8] = 0.93405324183624310003907691704e+2
D[3, 9] = -0.37458323136451633156875139351e+2
D[3, 10] = 0.10409964950896230045147246184e+3
D[3, 11] = 0.29840293426660503123344363579e+2
D[3, 12] = -0.43533456590011143754432175058e+2
D[3, 13] = 0.96324553959188282948394950600e+2
D[3, 14] = -0.39177261675615439165231486172e+2
D[3, 15] = -0.14972683625798562581422125276e+3


SAFETY = 0.9  # multiplies the step the error asymptotics suggest
MIN_FACTOR = 0.2  # smallest step change
MAX_FACTOR = 10  # largest step change
ERROR_EXPONENT = -1 / 8  # -1 / (error estimator order 7 + 1)
SUCCESS = "The solver successfully reached the end of the integration interval."
TOO_SMALL_STEP = "Required step size is less than spacing between numbers."


def _evaluate(t_old: float, h: float, y_old: np.ndarray, F: np.ndarray, t: np.ndarray) -> np.ndarray:
    x = ((t - t_old) / h)[:, None]
    y = np.zeros((len(x), len(y_old)), dtype=y_old.dtype)
    for i, f in enumerate(reversed(F)):
        y += f
        if i % 2 == 0:
            y *= x
        else:
            y *= 1 - x
    y += y_old
    return y


def _norm(x: np.ndarray) -> float:
    # np.linalg.norm of a 1-D complex array, in its own operations without
    # its checks; the norm of the rows of a stack rounds differently. A lone
    # float takes math's square root, which rounds as numpy's does
    return math.sqrt(x.real.dot(x.real) + x.imag.dot(x.imag))


def _rms(x: np.ndarray):
    return _norm(x) / x.size**0.5


def _initial_step(fun: Callable, t0: float, y0: np.ndarray, f0: np.ndarray, t_bound: float, rtol, atol):
    # scipy's select_initial_step (Hairer, Norsett, Wanner, Sec. II.4),
    # forward and with no step bound; makes one RHS evaluation
    interval_length = abs(t_bound - t0)
    scale = atol + np.abs(y0) * rtol
    d0 = _rms(y0 / scale)
    d1 = _rms(f0 / scale)
    if d0 < 1e-5 or d1 < 1e-5:
        h0 = 1e-6
    else:
        h0 = 0.01 * d0 / d1
    h0 = min(h0, interval_length)
    f1 = fun(t0 + h0, y0 + h0 * f0)
    d2 = _rms((f1 - f0) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 8)
    return min(100 * h0, h1, interval_length)


def _error_norm(err5: np.ndarray, err3: np.ndarray, h: float):
    # RMS of the 5th-order error estimate, damped where the 3rd-order one is larger
    err5_norm_2 = _norm(err5) ** 2
    err3_norm_2 = _norm(err3) ** 2
    if err5_norm_2 == 0 and err3_norm_2 == 0:
        return 0.0
    denom = err5_norm_2 + 0.01 * err3_norm_2
    return abs(h) * err5_norm_2 / math.sqrt(denom * len(err5))


class Solve:
    """One DOP853 solve: its place in the step loop, then its outcome.

    Takes and checks solve_ivp's arguments but fun and clock. Between steps
    it holds the last accepted t, y and f, the next attempt's step h to
    t_new, its step control and its segment and sample cursors. Its outcome
    reads as scipy's: success, message and nfev (see solve_ivp); t and y
    are the last accepted time and state (t1 on success); steps and
    rejected count accepted and rejected steps over all segments; drift is
    the largest value of the drift function over y0 and every accepted
    state (0.0 without one); samples holds the state at each sample time
    the solve reached, one row each.
    """

    def __init__(self, t_span, y0, rtol: float, atol: float, samples=(), drift=None, breaks=()):
        self.t, self.t_bound = map(float, t_span)
        if not self.t < self.t_bound:
            raise ValueError(f"t_span must increase, got {t_span}")
        ends = [*map(float, breaks), self.t_bound]
        if not all(a < b for a, b in zip([self.t, *ends], ends)):
            raise ValueError(f"breaks must increase strictly inside {t_span}, got {breaks}")
        self.end, self.later = self.t, iter(ends)
        self.y = np.asarray(y0, dtype=complex)
        self.rtol, self.atol, self.drift_of = rtol, atol, drift
        self.times = np.asarray(samples, dtype=float)
        self.samples = np.empty((0, self.y.size), dtype=complex)
        self.nfev = self.steps = self.rejected = 0
        self.drift = drift(self.y) if drift else 0.0
        self.success, self.message = True, SUCCESS

    def begin(self, fun: Callable, clock: Callable) -> bool:
        # a new step from the last accepted state; False once the solve is done.
        # A segment starts with a fresh first step, as a new scipy solve takes,
        # from 2 evaluations on the solve's own clock
        if self.t == self.t_bound:
            return False
        if self.t == self.end:
            self.end = next(self.later)
            at = lambda t, y: fun(clock(np.minimum([t], self.t_bound))[0], y)  # noqa: E731
            self.f = at(self.t, self.y)
            self.h_abs = _initial_step(at, self.t, self.y, self.f, self.end, self.rtol, self.atol)
            self.nfev += 2
        self.min_step = 10 * abs(math.nextafter(self.t, math.inf) - self.t)
        self.h_abs = max(self.h_abs, self.min_step)
        self.retry = False
        return self.attempt()

    def attempt(self) -> bool:
        # the next attempt's step, or False when it underflowed: scipy's TOO_SMALL_STEP
        if not self.h_abs >= self.min_step:
            self.success, self.message = False, TOO_SMALL_STEP
            return False
        self.t_new = min(self.t + self.h_abs, self.end)
        self.h = self.t_new - self.t
        self.h_abs = abs(self.h)
        return True

    def settle(self, error_norm: float, y_new, f_new, K_extended: np.ndarray, fun: Callable, clock: Callable):
        # scipy's step size control on an attempt's error, and the next
        # attempt, or False once the solve is done. An accepted step reads
        # the samples it holds off its dense-output polynomial, after its 3
        # extended stages on the solve's own clock
        self.nfev += N_STAGES
        if not error_norm < 1:
            self.h_abs *= max(MIN_FACTOR, SAFETY * error_norm**ERROR_EXPONENT)
            self.retry = True
            self.rejected += 1
            return self.attempt()
        factor = MAX_FACTOR
        if error_norm > 0:
            factor = min(MAX_FACTOR, SAFETY * error_norm**ERROR_EXPONENT)
        if self.retry:
            factor = min(1, factor)
        self.h_abs *= factor
        t, h, y, f, t_new, read = self.t, self.h, self.y, self.f, self.t_new, len(self.samples)
        if read < self.times.size and self.times[read] <= t_new:
            for s, row in zip(range(N_STAGES + 1, N_STAGES_EXTENDED), clock(t + EXTRA_C * h)):
                K_extended[s] = fun(row, y + np.dot(K_extended[:s].T, A_COMPLEX[s, :s]) * h)
            self.nfev += N_STAGES_EXTENDED - N_STAGES - 1
            due = np.searchsorted(self.times, t_new, side="right")
            delta_y = y_new - y
            F = np.vstack((
                delta_y, h * f - delta_y, 2 * delta_y - h * (f_new + f), h * np.dot(D, K_extended)
            ))
            self.samples = np.concatenate((self.samples, _evaluate(t, h, y, F, self.times[read:due])))
        self.t, self.y, self.f = t_new, y_new, f_new
        self.steps += 1
        if self.drift_of:
            self.drift = max(self.drift, self.drift_of(y_new))
        return self.begin(fun, clock)


def solve_lockstep(fun: Callable, clock: Callable, solves: Sequence[Solve]) -> Sequence[Solve]:
    """Advance B solves of one state length N together by DOP853, each as solve_ivp alone.

    Every solve keeps its own step control, segments, samples, counts and
    drift (see Solve), so each returned Solve is its solve_ivp bit for bit.
    A pass makes one attempt of each running solve, b of them: the 12
    stages call fun(rows, Y) once each on the states stacked as (N, b),
    with each solve's row of the stage on a trailing axis, and the stage
    sums and error estimates are one batched np.matmul (pinned equal to
    each solve's np.dot). clock(members), for the indices of the running
    solves, gives their clock, which maps stage times (S, b) to S such
    rows in one call per pass. A lone solve, the last one running, and
    each solve's segment starts and extended stages run unstacked, on the
    one-member clock, whose times and rows are solve_ivp's. The lone path
    pays: stacked as (N, 1) or (1, N), a lone solve cost 13-27% more per
    attempt (thermo n = 20 at T = 10 and 100, and the n = 200 trace).
    """
    own = [clock([j]) for j in range(len(solves))]  # each solve's own clock
    running = [j for j, solve in enumerate(solves) if solve.begin(fun, own[j])]
    members = []
    while running:
        if running != members:  # stack what is left
            members, active = running, [solves[j] for j in running]
            # one solve runs unstacked, and keys = [...] reads all of it; b solves stack
            # states as (N, b) and stages as (b, 16, N), and keys read row i
            alone = len(members) == 1
            if alone:
                keys, lead, nodes, product, errors = [...], (), STEP_C, np.dot, np.dot
                rows_of = columns_of = itemgetter(0)
            else:
                keys, lead, nodes, errors = range(len(members)), (len(members),), STEP_C[:, None], np.matmul
                product = lambda before, a: np.matmul(before, a).T  # noqa: E731
                rows_of, columns_of = np.array, np.column_stack
            K_extended = np.empty((*lead, N_STAGES_EXTENDED, active[0].y.size), dtype=complex)
            K_t = K_extended.swapaxes(-1, -2)
            # stage s reads the stages before it: K[:s].T weighted by row s of A
            stages = [
                (K_extended[..., s, :].T, K_t[..., :s], A_COMPLEX[s, :s]) for s in range(N_STAGES + 1)
            ]
            (K_0, _, _), *stages, (K_last, K_sum, _) = stages
            K_error = K_t[..., : N_STAGES + 1]
            t_bound = rows_of([s.t_bound for s in active])
            rtol, atol = rows_of([s.rtol for s in active]), rows_of([s.atol for s in active])
            tick = clock(members)
        t, h = rows_of([s.t for s in active]), rows_of([s.h for s in active])
        y = columns_of([s.y for s in active])
        K_0[...] = columns_of([s.f for s in active])
        rows = tick(np.minimum(t + nodes * h, t_bound))
        for (K_s, before, a), row in zip(stages, rows):
            K_s[...] = fun(row, y + product(before, a) * h)
        y_new = y + h * product(K_sum, B_COMPLEX)
        K_last[...] = f_new = fun(rows[-1], y_new)
        scale = (atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol).T
        err5, err3 = errors(K_error, E5) / scale, errors(K_error, E3) / scale
        y_new, f_new, running = y_new.T, f_new.T, []
        for key, j, s in zip(keys, members, active):
            error_norm = _error_norm(err5[key], err3[key], s.h)
            if s.settle(error_norm, y_new[key], f_new[key], K_extended[key], fun, own[j]):
                running.append(j)
    return solves


def solve_ivp(
    fun: Callable,
    t_span: tuple[float, float],
    y0,
    rtol: float,
    atol: float,
    samples=(),
    drift: Callable[[np.ndarray], float] | None = None,
    breaks=(),
    clock: Callable[[np.ndarray], Sequence] = np.asarray,
) -> Solve:
    """Integrate y' = fun(clock([t])[0], y) from t0 to t1 > t0, (t0, t1) = t_span, by DOP853.

    The lone solve of solve_lockstep (B = 1), returned as its Solve. In a
    lockstep run each solve keeps this step control, these counts and
    these clock calls as its own. y0 is made a complex array, and fun returns one shaped like it. clock
    holds the part of the RHS that depends on t alone: it maps an array of
    times to rows, one per time, and fun(row, y) does the rest. So a step
    calls clock once, on the times of all 12 stages, t + C[1:13] h, and fun
    once per stage. The default clock, np.asarray, makes fun an RHS of
    (t, y). Every time clock receives lies in [t0, t1]: the loop, not its
    callers, clamps the stage times and first-step probes that round past
    t1. breaks, ascending times strictly inside (t0, t1), split the span
    into segments: a step ends exactly on each break, and the next segment
    starts afresh there, with a new first step, as a new scipy solve from
    the state at the break would. This is where fun may be non-smooth,
    which an 8th-order step cannot straddle without a run of rejections. A
    step whose size falls below ten units in the last place of t ends the
    solve with success False and scipy's message. samples, ascending times
    in [t0, t1], are read as scipy reads t_eval: a step from t_old to t_new
    that holds samples, those in (t_old, t_new] and t0 with the first step,
    runs the 3 extended stages and reads them off its dense-output
    polynomial (a boundary sample, a break included, so reads the earlier
    step). So one solve is bit for bit the consecutive scipy solves over
    its segments, at t_eval = the samples each one reads, and
    nfev = 2 segments + 12 (steps + rejected) + 3 (steps that hold a sample):
    2 evaluations choose each segment's first step, each accepted or
    rejected step takes 12, and 3 more if it holds a sample. Likewise
    clock calls = 2 segments + (steps + rejected) + (steps that hold a sample):
    one time for each of a segment's 2 evaluations, a step's 12 stage
    times, and its 3 extended ones. drift, a function of one state, is
    taken at y0 and at each accepted state, and its largest value returned,
    so that no state but the last is kept.
    """
    solve = Solve(t_span, y0, rtol, atol, samples, drift, breaks)
    return solve_lockstep(fun, lambda members: clock, [solve])[0]
