"""Seeded inputs and closed-loop measurement of the three workloads.

Every workload is one client that sends its next request only after the
previous one returned.  Inputs come from the seed alone: formulae are
generated here as text and traces as cells, and the program sees nothing
else.

A workload's inputs are cut into a fixed set of *chunks* (32 sweep formulae,
or one stream or growth trace), and the run visits them in turn, pass after
pass, until the deadline has passed and at least one full pass is done.
Calibration slices (see calibrate.py) run between requests, outside the
timed calls; a rate is one pass's work over the sum, across chunks, of each
chunk's median visit time scaled to the reference machine speed.  Every
visit is kept as a sample for the quartiles, with and without scaling.

The first full pass is the counted prefix: tracer counts stop after it, so
they repeat exactly for one seed whatever the machine speed.
"""

from __future__ import annotations

import random
import statistics
import sys
from dataclasses import dataclass, field

from calibrate import REFERENCE_SLICE_S, Calibrator, clock

from rulerunner import cli, engine, ltl, mapcheck, oracle, rules
from rulerunner.traces import Trace

# -- formula text ---------------------------------------------------------------

LEAVES = ("true", "a", "b", "!a", "!b")
UNARY = ("X", "W", "F", "G")  # next, weak next, eventually, always
BINARY = ("|", "&", "U")


def _wrap(text: str) -> str:
    return text if text in LEAVES else f"({text})"


def _unary(op: str, sub: str) -> str:
    return f"{op} {_wrap(sub)}"


def _binary(op: str, left: str, right: str) -> str:
    return f"{_wrap(left)} {op} {_wrap(right)}"


# Criterion-4 corpus: every NNF formula over {a, b} of operator depth <= 2,
# in the order of its enumeration (leaves, X W F G, | & U).
DEPTH1 = (
    list(LEAVES)
    + [_unary(op, f) for op in UNARY for f in LEAVES]
    + [_binary(op, f, g) for op in BINARY for f in LEAVES for g in LEAVES]
)
CORPUS_SIZE = len(LEAVES) + len(UNARY) * len(DEPTH1) + len(BINARY) * len(DEPTH1) ** 2


def corpus_formula(i: int) -> str:
    """Text of the i-th formula of the depth-2 corpus."""
    n = len(DEPTH1)
    if i < len(LEAVES):
        return LEAVES[i]
    i -= len(LEAVES)
    if i < len(UNARY) * n:
        return _unary(UNARY[i // n], DEPTH1[i % n])
    op, rest = divmod(i - len(UNARY) * n, n * n)
    return _binary(BINARY[op], DEPTH1[rest // n], DEPTH1[rest % n])


def core_formula(depth: int, rng: random.Random) -> str:
    """Random core-grammar formula (X W | & U, no F/G) as criterion 8 draws them."""
    if depth == 0 or rng.random() < 0.2:
        return rng.choice(LEAVES)
    op = rng.choice(("X", "W", "|", "&", "U"))
    if op in BINARY:
        return _binary(op, core_formula(depth - 1, rng), core_formula(depth - 1, rng))
    return _unary(op, core_formula(depth - 1, rng))


def parse_nnf(text: str):
    return ltl.to_nnf(ltl.parse_formula(text))


def _setup(texts, cal: Calibrator, keep_systems: bool = False) -> tuple[list, list, float]:
    """Parse, normalise and compile each formula; returns the NNF formulae,
    their rule systems if asked for (the sweep's would only add to its peak
    memory) and the time spent, calibration slices excluded."""
    formulas, systems = [], []
    spent = 0.0
    for text in texts:
        t0 = clock()
        f = parse_nnf(text)
        system = rules.compile_formula(f)
        spent += clock() - t0
        formulas.append(f)
        if keep_systems:
            systems.append(system)
        cal.tick()
    return formulas, systems, spent


def random_cells(rng: random.Random, atoms, length: int, density: float) -> tuple[frozenset[str], ...]:
    return tuple(frozenset(a for a in atoms if rng.random() < density) for _ in range(length))


# -- measurement record ---------------------------------------------------------


class Reservoir:
    """Uniform sample of at most `size` values (Algorithm R), so that the
    benchmark's own memory does not grow with the number of steps timed."""

    def __init__(self, size: int):
        self.size = size
        self.values: list[float] = []
        self.count = 0
        self._rng = random.Random(0)

    def extend(self, xs) -> None:
        values, size = self.values, self.size
        for x in xs:
            self.count += 1
            if len(values) < size:
                values.append(x)
            else:
                j = self._rng.randrange(self.count)
                if j < size:
                    values[j] = x


@dataclass
class Chunk:
    key: int  # which chunk of the pass
    seconds: float = 0.0  # time inside the program's entry points
    cells: int = 0
    verdicts: int = 0  # trace verdicts checked against a reference
    check_seconds: float = 0.0
    checks: int = 0
    slice_s: float = 0.0  # mean calibration slice time during the visit


@dataclass
class Measurement:
    chunks: list[Chunk] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    step_us: Reservoir = field(default_factory=lambda: Reservoir(20_000))
    eof_ms: list[float] = field(default_factory=list)
    peak_live: int = 0

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.failures) < 10:
            self.failures.append(what)

    def visit_rates(self, work: str, seconds: str = "seconds") -> tuple[list[float], list[float]]:
        """Per visit: (rate, rate at the reference machine speed)."""
        raw, scaled = [], []
        for c in self.chunks:
            t = getattr(c, seconds)
            if t > 0:
                raw.append(getattr(c, work) / t)
                scaled.append(raw[-1] * c.slice_s / REFERENCE_SLICE_S)
        return raw, scaled

    def rate(self, work: str, seconds: str = "seconds") -> float:
        """Work of one pass over the sum, across chunks, of each chunk's
        median visit time at the reference machine speed."""
        by_key: dict[int, list[Chunk]] = {}
        for c in self.chunks:
            if getattr(c, seconds) > 0:
                by_key.setdefault(c.key, []).append(c)
        done = sum(getattr(v[0], work) for v in by_key.values())
        spent = sum(
            statistics.median(getattr(c, seconds) * REFERENCE_SLICE_S / c.slice_s for c in v) for v in by_key.values()
        )
        return done / spent if spent else 0.0


def _run_chunks(chunk_fn, keys: int, seconds: float, cal: Calibrator, tracer) -> Measurement:
    """Visit the chunks in turn until the deadline, and at least once each."""
    m = Measurement()
    deadline = clock() + seconds
    index = 0
    while index < keys or clock() < deadline:
        mark = cal.mark()
        c = chunk_fn(Chunk(index % keys), m, cal)
        c.slice_s = cal.mean_since(mark)
        m.chunks.append(c)
        index += 1
        if tracer is not None and index == keys:
            tracer.end_prefix()
    return m


# -- sweep ----------------------------------------------------------------------

SWEEP_POOL = 256  # power of two: the visiting order below is a bit reversal
SWEEP_CHUNK = 32
DENSITIES = (0.0, 0.3, 0.7, 1.0)


class Sweep:
    """Seeded sample of the criterion-4 corpus through `cli.run_differential`,
    plus criterion-8-style `check_run` calls.

    The corpus is cut into SWEEP_POOL equal strata, one formula is drawn from
    each, and strata are visited in bit-reversed order, so every chunk of
    SWEEP_CHUNK formulae covers the corpus evenly and seeds differ little in
    their mix."""

    def __init__(self, seed: int):
        rng = random.Random(seed)
        bits = SWEEP_POOL.bit_length() - 1
        self.formula_texts = []
        for k in range(SWEEP_POOL):
            stratum = int(format(k, f"0{bits}b")[::-1], 2)
            lo, hi = stratum * CORPUS_SIZE // SWEEP_POOL, (stratum + 1) * CORPUS_SIZE // SWEEP_POOL
            self.formula_texts.append(corpus_formula(rng.randrange(lo, hi)))
        # 216 traces: 9 per (length 1-6, density) pair, as in criterion 4
        self.traces = [
            Trace(random_cells(rng, ("a", "b"), length, density))
            for length in range(1, 7)
            for density in DENSITIES
            for _ in range(9)
        ]
        self.cells_per_formula = sum(len(u) for u in self.traces)
        self.check_texts = [core_formula(3, rng) for _ in range(SWEEP_POOL)]
        self.check_traces = [Trace(random_cells(rng, ("a", "b"), rng.randint(1, 5), 0.5)) for _ in range(SWEEP_POOL)]

    def setup(self, cal: Calibrator) -> float:
        self.formulas, _, spent = _setup(self.formula_texts, cal)
        self.checks, _, more = _setup(self.check_texts, cal)
        return spent + more

    def run(self, seconds: float, cal: Calibrator, tracer=None) -> Measurement:
        return _run_chunks(self._chunk, SWEEP_POOL // SWEEP_CHUNK, seconds, cal, tracer)

    def _chunk(self, c: Chunk, m: Measurement, cal: Calibrator) -> Chunk:
        for n in range(c.key * SWEEP_CHUNK, (c.key + 1) * SWEEP_CHUNK):
            f = self.formulas[n]
            cal.tick()
            try:
                t0 = clock()
                comparisons, mismatches = cli.run_differential([f], self.traces)
                c.seconds += clock() - t0
            except Exception as exc:  # a crash counts against every pair of the formula
                m.attempted += len(self.traces)
                m.fail(f"run_differential({self.formula_texts[n]!r}) raised {exc!r}")
                continue
            c.cells += self.cells_per_formula
            c.verdicts += comparisons
            m.attempted += comparisons
            for g, u, got, want in mismatches:
                m.fail(f"mismatch {ltl.format_formula(g)} over {u}: engine {got}, oracle {want}")
            self._check(n, c, m, cal)  # one check_run per formula
        return c

    def _check(self, n: int, c: Chunk, m: Measurement, cal: Calibrator) -> None:
        f, u = self.checks[n], self.check_traces[n]
        m.attempted += 1
        cal.tick()
        try:
            t0 = clock()
            report = mapcheck.check_run(f, u)
            c.check_seconds += clock() - t0
        except Exception as exc:
            m.fail(f"check_run({self.check_texts[n]!r}) raised {exc!r}")
            return
        c.checks += 1
        want = "⊤" if report.verdict is engine.Verdict.SUCCESS else "⊥"
        if not report.passed:
            m.fail(f"map violation: {report.render()}")
        elif report.skipped_from is None and report.steps[-1].judgement != want:
            m.fail(f"terminal judgement {report.steps[-1].judgement} for verdict {report.verdict}")

    def verify(self, m: Measurement) -> None:
        """run_differential only compares SUCCESS against the oracle, so an
        undecided end verdict on a false pair would pass it; re-run every
        pair outside the timed region and require binary verdicts."""
        for f in self.formulas:
            system = rules.compile_formula(f)
            for u in self.traces:
                if engine.run_trace(system, u).verdict is engine.Verdict.UNDECIDED:
                    m.fail(f"undecided end verdict for {ltl.format_formula(f)} over {u}")


# -- stream_flat ----------------------------------------------------------------

STREAM_LENGTH = 2500


@dataclass
class StreamUnit:
    formula: str
    cells: Trace
    lines: list[str]
    outputs: list[str]  # expected stdout lines
    exit_code: int


def _line(cell: frozenset[str]) -> str:
    return (",".join(sorted(cell)) or ".") + "\n"


def _noise(rng: random.Random) -> set[str]:
    return {"c"} if rng.random() < 0.5 else set()


def _stream_units(rng: random.Random) -> list[StreamUnit]:
    """Two traces per bounded-state formula: one decided only by `$end`, one
    decided at a known cell late in the trace (or, for G (!a | F b), whose
    verdict can only come at the end, one failing at the end)."""
    n = STREAM_LENGTH
    late = n * 9 // 10  # fixed, so that seeds vary the content and not the amount of work
    units = []

    def unit(formula, cells, decided_at, verdict):
        k = len(cells) if decided_at is None else decided_at
        outputs = ["?"] * k + [verdict]
        units.append(StreamUnit(formula, Trace(tuple(cells)), [_line(c) for c in cells], outputs,
                                0 if verdict == "SUCCESS" else 1))

    # G a: a everywhere; the late trace drops it once
    cells = [frozenset({"a"} | _noise(rng) | ({"b"} if rng.random() < 0.5 else set())) for _ in range(n)]
    unit("G a", cells, None, "SUCCESS")
    cells = list(cells)
    cells[late] = cells[late] - {"a"}
    unit("G a", cells, late, "FAILURE")

    # G (a | X b): every cell without a is followed by one with b
    cells = []
    for i in range(n):
        c = {"a"} if rng.random() < 0.7 or i == n - 1 else set()
        if i and "a" not in cells[-1]:
            c.add("b")
        cells.append(frozenset(c | _noise(rng)))
    unit("G (a | X b)", cells, None, "SUCCESS")
    cells = list(cells)
    cells[late] = cells[late] - {"a"}
    cells[late + 1] = cells[late + 1] - {"b"}
    unit("G (a | X b)", cells, late + 1, "FAILURE")

    # G (!a | F b): requests a answered by b; the second trace leaves the last ones open
    cells = [
        frozenset(({"a"} if rng.random() < 0.3 else set()) | ({"b"} if rng.random() < 0.2 else set()) | _noise(rng))
        for _ in range(n)
    ]
    cells[-1] = cells[-1] | {"b"}
    unit("G (!a | F b)", cells, None, "SUCCESS")
    cells = list(cells)
    for i in range(n - 3, n):
        cells[i] = frozenset({"a"})
    unit("G (!a | F b)", cells, None, "FAILURE")

    # a U b with a held: b arrives late, or never
    cells = [frozenset({"a"} | _noise(rng)) for _ in range(n)]
    unit("a U b", cells, None, "FAILURE")
    cells = list(cells)
    cells[late] = cells[late] | {"b"}
    unit("a U b", cells, late, "SUCCESS")
    return units


class TimedLines:
    """stdin stand-in: records when each line is handed to the reader.  Due
    calibration slices run before a line is handed over; `paused` is their
    total, to be taken off the time of the call that read the lines."""

    def __init__(self, lines: list[str], cal: Calibrator):
        self._lines = lines
        self._cal = cal
        self.times: list[float] = []
        self.paused = 0.0

    def __iter__(self):
        return self

    def __next__(self) -> str:
        i = len(self.times)
        if i >= len(self._lines):
            raise StopIteration
        self.paused += self._cal.tick()
        self.times.append(clock())
        return self._lines[i]


class TimedWriter:
    """stdout stand-in: records each completed output line and when it was written."""

    def __init__(self):
        self._buf: list[str] = []
        self.lines: list[str] = []
        self.times: list[float] = []

    def write(self, text: str) -> int:
        self._buf.append(text)
        if text.endswith("\n"):
            now = clock()
            for line in "".join(self._buf).splitlines():
                self.lines.append(line)
                self.times.append(now)
            self._buf.clear()
        return len(text)

    def flush(self) -> None:
        pass


class StreamFlat:
    """`rulerunner stream` in process: `cli.main(["stream", f])` reading a
    timed line iterator that ends in `$end`, writing to a timestamping writer."""

    formula_texts = ("G a", "G (a | X b)", "G (!a | F b)", "a U b")

    def __init__(self, seed: int):
        self.units = _stream_units(random.Random(seed))

    def setup(self, cal: Calibrator) -> float:
        return _setup(self.formula_texts, cal)[2]

    def run(self, seconds: float, cal: Calibrator, tracer=None) -> Measurement:
        self.tracer = tracer
        return _run_chunks(self._chunk, len(self.units), seconds, cal, tracer)

    def _chunk(self, c: Chunk, m: Measurement, cal: Calibrator) -> Chunk:
        unit = self.units[c.key]
        stdin = TimedLines(unit.lines + ["$end\n"], cal)
        stdout = TimedWriter()
        saved = sys.stdin, sys.stdout
        sys.stdin, sys.stdout = stdin, stdout
        try:
            t0 = clock()
            code = cli.main(["stream", unit.formula])
            c.seconds += clock() - t0 - stdin.paused
        finally:
            sys.stdin, sys.stdout = saved
        cells = min(len(stdin.times), len(unit.lines))
        if self.tracer is not None:
            self.tracer.offer(cells)
        c.cells += cells
        c.verdicts += 1
        m.attempted += 1
        if stdout.lines != unit.outputs or code != unit.exit_code:
            got = stdout.lines[-1] if stdout.lines else None
            m.fail(f"stream {unit.formula!r}: {len(stdout.lines)} lines ending {got!r}, exit {code}; "
                   f"expected {len(unit.outputs)} ending {unit.outputs[-1]!r}, exit {unit.exit_code}")
            return c
        online = min(len(stdout.lines), cells)
        m.step_us.extend((stdout.times[i] - stdin.times[i]) * 1e6 for i in range(online))
        if len(stdin.times) > len(unit.lines):  # `$end` was read
            m.eof_ms.append((stdout.times[-1] - stdin.times[-1]) * 1e3)
        return c

    def verify(self, m: Measurement) -> None:
        """The verdicts above are the ones known from how each trace was
        built; check that construction against the brute-force semantics."""
        for unit in self.units:
            want = unit.outputs[-1] == "SUCCESS"
            if oracle.oracle_eval(parse_nnf(unit.formula), unit.cells, 0) != want:
                m.fail(f"stream input for {unit.formula!r} built with the wrong verdict")


# -- nested_growth --------------------------------------------------------------

GROWTH_LENGTH = 800
RARE_GAP = 100


@dataclass
class GrowthUnit:
    formula: int  # index into NestedGrowth.formula_texts
    cells: tuple[frozenset[str], ...]
    verdict: str


class NestedGrowth:
    """`Monitor.step` on nested temporal formulae whose live instances grow
    with position while `a` stays away; no cli, no parsing, no replay."""

    formula_texts = ("G F a", "G F X a")

    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.units = []
        for rare in (False, True):
            for f in range(len(self.formula_texts)):
                # rare: `a` once every RARE_GAP cells from a seeded offset, so
                # the amount of live state, and of work, is the same for every seed
                offset = rng.randrange(RARE_GAP)
                cells = [
                    frozenset({"b"} if rng.random() < 0.5 else set())
                    | ({"a"} if rare and i % RARE_GAP == offset else set())
                    for i in range(GROWTH_LENGTH)
                ]
                if rare:
                    cells[-1] = cells[-1] | {"a"}
                # G F X a needs a cell after the last one, so it always fails at the end
                verdict = "SUCCESS" if rare and f == 0 else "FAILURE"
                self.units.append(GrowthUnit(f, tuple(cells), verdict))

    def setup(self, cal: Calibrator) -> float:
        _, self.systems, spent = _setup(self.formula_texts, cal, keep_systems=True)
        return spent

    def run(self, seconds: float, cal: Calibrator, tracer=None) -> Measurement:
        self.tracer = tracer
        return _run_chunks(self._chunk, len(self.units), seconds, cal, tracer)

    def _chunk(self, c: Chunk, m: Measurement, cal: Calibrator) -> Chunk:
        unit = self.units[c.key]
        undecided = engine.Verdict.UNDECIDED
        m.attempted += 1
        if self.tracer is not None:
            self.tracer.offer(len(unit.cells))
        last = len(unit.cells) - 1
        lat = []
        early = None
        try:
            monitor = engine.Monitor(self.systems[unit.formula])
            for i, cell in enumerate(unit.cells):
                t0 = clock()
                outcome = monitor.step(cell, is_last=(i == last))
                lat.append(clock() - t0)
                cal.tick()
                live = monitor.live_count()
                if live > m.peak_live:
                    m.peak_live = live
                if outcome.verdict is not undecided and i != last:
                    early = i
                    break
        except Exception as exc:
            m.fail(f"Monitor.step on {self.formula_texts[unit.formula]!r} raised {exc!r}")
            return c
        c.seconds += sum(lat)
        c.cells += len(lat)
        c.verdicts += 1
        m.step_us.extend(x * 1e6 for x in lat)
        if early is not None or str(outcome.verdict) != unit.verdict:
            m.fail(f"{self.formula_texts[unit.formula]!r}: {outcome.verdict} at cell {outcome.cell}, "
                   f"expected {unit.verdict} at cell {last}")
        return c

    def verify(self, m: Measurement) -> None:
        for unit in self.units:
            f = parse_nnf(self.formula_texts[unit.formula])
            if oracle.oracle_eval(f, Trace(unit.cells), 0) != (unit.verdict == "SUCCESS"):
                m.fail(f"growth input for {self.formula_texts[unit.formula]!r} built with the wrong verdict")


WORKLOADS = {"sweep": Sweep, "stream_flat": StreamFlat, "nested_growth": NestedGrowth}
