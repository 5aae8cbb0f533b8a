"""The four benchmark workloads.

Each workload drives entspace's public API in a closed loop: the next call
is issued when the previous one returns.  Inputs come from a benchmark-side
generator seeded by the workload seed, so equal seeds give equal inputs;
the program only ever sees the generated configurations and angles.  Every
call is an operation: it is counted as attempted, and as failed when it
raises or when its output fails the workload's check.

Every workload reports the same end-to-end metrics; README.md gives
their meaning on each workload.
"""

import functools
import statistics
import time

import numpy as np

import entspace.montecarlo as mc
import entspace.separability as sep
import entspace.serialize as ser
import entspace.verify as ver
from entspace import tolerances as tol

#: Conjectured (Slater) and numerically established Hilbert-Schmidt
#: separable fraction of two-qubit states.
HS_FRACTION = 8.0 / 33.0
WALD_SIGMAS = 4.0
TWO_PI = 2.0 * np.pi

#: Input sizes.  "full" is what the benchmark measures; "tiny" is used by
#: the layer sweep of a traced run and by the self-test.
SCALES = {
    "full": {
        "scan_states": 16384,
        "sample_rows": 1024,
        "spot_every": 32,
        "chart_states": 1024,
        "chart_fits": 32,
        "verify_samples": 10000,
    },
    "tiny": {
        "scan_states": 4096,
        "sample_rows": 64,
        "spot_every": 32,
        "chart_states": 8,
        "chart_fits": 2,
        "verify_samples": 16,
    },
}


#: Fixed input of the calibration kernel; it does not depend on the program.
_CAL_MATRICES = np.random.default_rng(0).standard_normal((256, 4, 4))
#: Time the calibration kernel is taken to need at nominal machine speed.
CAL_NOMINAL_S = 1e-3


def calibration_seconds():
    """Wall time of a fixed kernel (a Python loop and a small batch of
    LAPACK calls, the two kinds of work the program does).  It tracks the
    speed the shared machine gives this process at the moment."""
    t0 = time.perf_counter()
    total = 0.0
    for i in range(2000):
        total += i * 0.5
    np.linalg.eigvalsh(_CAL_MATRICES @ _CAL_MATRICES.transpose(0, 2, 1))
    return time.perf_counter() - t0


class Stats:
    """Operation counts, throughput and latency samples of one phase.

    Every timed call is bracketed by calibration-kernel runs; its wall time
    times ``CAL_NOMINAL_S`` over their mean is the call's time at nominal
    machine speed.  Rates and latencies keep both figures: the scaled ones
    (``rates``, ``latencies_ms``) and the wall-clock ones (``raw_*``).
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.units = 0
        self.rates = []
        self.latencies_ms = []
        self.raw_rates = []
        self.raw_latencies_ms = []
        self.calibrations = []
        self._last_cal = None

    def timed(self, fn, units=0, latency=False):
        """Run ``fn()``; record ``units`` per second as a rate sample and,
        with ``latency``, its time as a latency sample.  Returns
        ``(result, wall seconds, seconds at nominal speed)``."""
        if self._last_cal is None:
            self._last_cal = calibration_seconds()
        t0 = time.perf_counter()
        out = fn()
        wall = time.perf_counter() - t0
        cal = calibration_seconds()
        self.calibrations.append(cal)
        scaled = wall * CAL_NOMINAL_S / (0.5 * (self._last_cal + cal))
        self._last_cal = cal
        if units:
            self.add_rate(units, wall, scaled)
        if latency:
            self.add_latency(wall, scaled)
        return out, wall, scaled

    def add_rate(self, units, wall, scaled):
        self.units += units
        self.rates.append(units / scaled)
        self.raw_rates.append(units / wall)

    def add_latency(self, wall, scaled):
        self.latencies_ms.append(1e3 * scaled)
        self.raw_latencies_ms.append(1e3 * wall)

    def attempt(self, op):
        """Run one operation; ``op`` returns None when its output checks out
        and a description of the problem otherwise."""
        self.attempted += 1
        try:
            problem = op()
        except Exception as exc:  # noqa: BLE001 - any exception is a failed operation
            problem = f"{type(exc).__name__}: {exc}"
        if problem is not None:
            self.failed += 1
            if len(self.failures) < 10:
                self.failures.append(problem)

    def merge(self, other):
        self.attempted += other.attempted
        self.failed += other.failed
        self.failures += other.failures[: 10 - len(self.failures)]


class Workload:
    name = ""
    #: CLI arguments whose stdout is hashed as the behaviour digest;
    #: "{seed}" is replaced by the workload seed.
    digest_argv = ()

    def __init__(self, seed, scale="full"):
        self.size = SCALES[scale]
        self.rng = np.random.Generator(np.random.Philox(seed))
        self.notes = {}

    def program_seed(self):
        return int(self.rng.integers(0, 1 << 63))

    def warmup(self):
        """First calls at the smallest size: lazy set-up, not measured."""

    def iteration(self, stats):
        raise NotImplementedError

    def finish(self, stats):
        """Checks over the whole run, after the loop."""


class ScanHS(Workload):
    name = "scan-hs"
    digest_argv = ("scan", "--ensemble", "hs", "-n", "16384", "--seed", "{seed}")

    def __init__(self, seed, scale="full"):
        super().__init__(seed, scale)
        self.separable = 0
        self.samples = 0

    def warmup(self):
        mc.separable_fraction(mc.RunConfig("hs", 1, 0))

    def iteration(self, stats):
        config = mc.RunConfig("hs", self.size["scan_states"], self.program_seed())

        def scan():
            result = stats.timed(
                lambda: mc.separable_fraction(config), units=config.samples, latency=True
            )[0]
            self.separable += result.separable
            self.samples += result.samples
            if result.mismatches:
                return f"scan seed {config.seed}: {result.mismatches} criterion/oracle mismatches"
            return None

        stats.attempt(scan)

    def finish(self, stats):
        def fraction_test():
            f = self.separable / self.samples
            z = (f - HS_FRACTION) / np.sqrt(f * (1.0 - f) / self.samples)
            self.notes.update(hs_fraction=f, hs_fraction_z=float(z), hs_samples=self.samples)
            if abs(z) > WALD_SIGMAS:
                return f"separable fraction {f} is {z:.2f} Wald sigma from 8/33"
            return None

        stats.attempt(fraction_test)


def _parse_row(line):
    fields = line.split(",")
    return mc.SampleRecord(
        index=int(fields[0]),
        verdict=fields[1],
        lhs3=float(fields[2]),
        lhs4=float(fields[3]),
        min_pt_eig=float(fields[4]),
        spectrum=tuple(float(v) for v in fields[5:]),
    )


class SampleHS(Workload):
    name = "sample-hs"
    digest_argv = ("sample", "--ensemble", "hs", "-n", "512", "--seed", "{seed}")

    def warmup(self):
        config = mc.RunConfig("hs", 2, 0)
        "".join(ser.records_to_csv_lines(mc.sample_records(config)))
        mc.reanalyze_record(config, next(mc.sample_records(config)))

    def iteration(self, stats):
        rows = self.size["sample_rows"]
        config = mc.RunConfig("hs", rows, self.program_seed())
        lines = []

        def stream():
            text = stats.timed(
                lambda: "".join(ser.records_to_csv_lines(mc.sample_records(config))),
                units=rows,
            )[0]
            lines.extend(text.splitlines())
            if lines[0] != ",".join(mc.SampleRecord.FIELDS) or len(lines) != rows + 1:
                return f"sample seed {config.seed}: {len(lines)} lines for {rows} rows"
            return None

        stats.attempt(stream)
        if len(lines) != rows + 1:
            return
        picks = self.rng.choice(rows, size=max(1, rows // self.size["spot_every"]), replace=False)
        for index in picks:
            stats.attempt(lambda: self._spot_check(config, int(index), lines[index + 1], stats))

    def _spot_check(self, config, index, line, stats):
        streamed = _parse_row(line)
        if streamed.index != index:
            return f"row {index} carries index {streamed.index}"
        replay = stats.timed(lambda: mc.reanalyze_record(config, streamed), latency=True)[0]
        if replay.index != index or replay.verdict != streamed.verdict:
            return f"replay of {index}: verdict {replay.verdict}, streamed {streamed.verdict}"
        gap = max(
            abs(a - b)
            for a, b in zip(
                (replay.lhs3, replay.lhs4, replay.min_pt_eig, *replay.spectrum),
                (streamed.lhs3, streamed.lhs4, streamed.min_pt_eig, *streamed.spectrum),
            )
        )
        self.notes["spot_check_max_gap"] = max(gap, self.notes.get("spot_check_max_gap", 0.0))
        if gap > tol.DUAL_PATH_TOL:
            return f"replay of {index} differs from the streamed row by {gap:.3e}"
        return None


def octahedron_points(rng, n):
    """``n`` uniform points of the closed l1-ball of radius 2*pi, by
    rejection from the enclosing cube."""
    out = np.empty((0, 3))
    while len(out) < n:
        v = rng.uniform(-TWO_PI, TWO_PI, (6 * n, 3))
        out = np.concatenate([out, v[np.abs(v).sum(axis=1) <= TWO_PI]])
    return out[:n]


class Chart(Workload):
    name = "chart"
    digest_argv = ("scan", "--ensemble", "chart", "-n", "256", "--seed", "{seed}")

    def warmup(self):
        mc.separable_fraction(mc.RunConfig("chart", 1, 0))
        sep.fit_c112_coeffs((0.3, -0.7, 0.9), (0.4, 1.1, -0.6))

    def iteration(self, stats):
        config = mc.RunConfig("chart", self.size["chart_states"], self.program_seed())

        def scan():
            result = stats.timed(lambda: mc.separable_fraction(config), units=config.samples)[0]
            if result.mismatches:
                return f"chart scan seed {config.seed}: {result.mismatches} mismatches"
            return None

        stats.attempt(scan)
        fits = self.size["chart_fits"]
        alphas = octahedron_points(self.rng, fits)
        betas = octahedron_points(self.rng, fits)
        for alpha, beta in zip(alphas, betas):
            stats.attempt(lambda: self._fit(alpha, beta, stats))

    def _fit(self, alpha, beta, stats):
        table = stats.timed(lambda: sep.fit_c112_coeffs(alpha, beta), latency=True)[0]
        where = f"alpha={alpha.tolist()}, beta={beta.tolist()}"
        if table.residual > tol.FIT_RESIDUAL_TOL:
            return f"fit residual {table.residual:.3e} at {where}"
        outside = set(table.support()) - sep.C112_SUPPORT
        if outside:
            return f"fit support {sorted(outside)} outside C112_SUPPORT at {where}"
        gap = abs(table.entry((0, 2, 2)) - sep.p022(alpha[2], beta))
        if gap > tol.FIT_RESIDUAL_TOL:
            return f"fitted (0,2,2) entry off p022 by {gap:.3e} at {where}"
        return None


class Verify(Workload):
    name = "verify"
    digest_argv = ("verify", "--suite", "all", "-n", "100", "--seed", "{seed}")

    def __init__(self, seed, scale="full"):
        super().__init__(seed, scale)
        self.check_times = {}

    def warmup(self):
        ver.run_suite("all", 1, 0)

    def _timed(self, fn, stats, suite_times):
        """The check ``fn`` with its (wall, nominal) seconds recorded."""
        name = fn.__name__.removeprefix("_check_")

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            out, wall, scaled = stats.timed(lambda: fn(*args, **kwargs))
            self.check_times.setdefault(name, []).append((wall, scaled))
            suite_times.append((wall, scaled))
            return out

        return timed

    def iteration(self, stats):
        seed = self.program_seed()

        def suite():
            checks = ver.CHECKS
            times = []
            ver.CHECKS = tuple((group, self._timed(fn, stats, times)) for group, fn in checks)
            try:
                report = ver.run_suite("all", self.size["verify_samples"], seed)
            finally:
                ver.CHECKS = checks
            stats.add_rate(1, sum(w for w, _ in times), sum(s for _, s in times))
            if not report["passed"]:
                failed = [c["name"] for c in report["checks"] if not c["passed"]]
                return f"verify seed {seed}: failed checks {failed}"
            return None

        stats.attempt(suite)

    def finish(self, stats):
        """One latency sample per check, its median over the run's suites,
        so every run's percentiles are taken over the same 19 checks."""
        for times in self.check_times.values():
            stats.add_latency(statistics.median(w for w, _ in times),
                              statistics.median(s for _, s in times))


WORKLOADS = {cls.name: cls for cls in (ScanHS, SampleHS, Chart, Verify)}
