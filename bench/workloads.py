"""The four benchmark workloads: job pools, job bodies and output records.

A workload is a list of *slots*.  A slot holds interchangeable variants of
one job shape (same case, size and depth; a different Poincare index,
discriminant, weight or branch), so every variant costs about the same.
Round ``r`` runs variant ``r`` of every slot, in a seeded order, and a run
measures whole rounds; that keeps the mix of cheap and costly jobs the same
from seed to seed while no job repeats within a run.  The ``quiver`` and
``numeric`` pools (four and six rounds) are used up by every run, so
their mix is fixed even where a slot's variants differ in cost.

Each job's output is reduced to short digests (``record``) that are
compared with ``reference.json``; ``problem`` adds the semantic checks
that hold whatever the reference says.
"""

from __future__ import annotations

import hashlib
import json
import random
from collections import namedtuple

from polymaass import classify, numcheck, quiverrep, specsolve, symcalc

Job = namedtuple("Job", "key spec")
CliJob = namedtuple("CliJob", "key steps")


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def canon(data) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def rounds(slots, rng: random.Random):
    """Round r holds variant r of every slot that has one, seeded order."""
    out = []
    for r in range(max(len(s) for s in slots)):
        jobs = [s[r] for s in slots if r < len(s) and s[r] is not None]
        rng.shuffle(jobs)
        out.append(jobs)
    return out


def _shuffled(rng: random.Random, items):
    items = list(items)
    rng.shuffle(items)
    return items


def _rotation(rng: random.Random, groups, make):
    """One job of each group in turn, each group's variants in seeded
    order: CLI jobs keep the same mix of shapes whatever the seed."""
    groups = [_shuffled(rng, g) for g in groups]
    return [make(g[i]) for i in range(min(map(len, groups))) for g in groups]


class Workload:
    name = ""
    help_argv: tuple = ()
    # scaled seconds of one round with its set-up samples and CLI jobs, at
    # the commit that defined the benchmark: a timed run of --seconds S
    # measures round(S / ROUND_S) rounds
    ROUND_S = 1.0

    def slots(self, rng):
        raise NotImplementedError

    def cli_jobs(self, rng):
        raise NotImplementedError

    def all_jobs(self):
        """Every in-process job that some seed can draw."""
        raise NotImplementedError

    def all_cli_jobs(self):
        raise NotImplementedError

    def run(self, job):
        raise NotImplementedError

    def record(self, job, out) -> dict:
        raise NotImplementedError

    def problem(self, job, out):
        """A semantic failure as text, or None."""
        return None

    def normalize(self, stdout: str) -> str:
        """The part of a CLI step's output that the reference pins."""
        return stdout

    def cli_digest(self, stdout: str) -> str:
        return digest(self.normalize(stdout))


# ---------------------------------------------------------------------------
# cases: construct_case -> JSON round trip -> classify_bk


VARIANTS = 16   # rounds available before a slot runs out of variants
FUND_DISCS = (3, 4, 7, 8, 11, 15, 19, 20, 23, 24, 31, 35, 39, 40, 43, 47)
POINCARE_INDICES = tuple(range(-1, -VARIANTS - 1, -1))
# Cases built through the flip (Ic, and IIIc on top of it) give forms that
# classify_bk rejects as not polyharmonic when the Poincare index is not a
# power of two and the flip acts in nonzero weight (a package defect, e.g.
# construct_case("Ic", -1, 1, index=-3)); those draw power-of-two indices.
FLIP_INDICES = tuple(-(2 ** e) for e in range(VARIANTS))
ANCHORED = ("Ia", "Id", "IIIa")   # Eisenstein or Poincare anchor


def _case_job(case, k, d, family=None, index=None, disc=None) -> Job:
    key = "%s/k=%d/d=%d" % (case, k, d)
    if family:
        key += "/" + family
    if index is not None:
        key += "/n=%d" % index
    if disc is not None:
        key += "/D=%d" % disc
    return Job(key, (case, k, d, family, index, disc))


def _case_variants(case, k, d):
    if case in ANCHORED:
        return ([_case_job(case, k, d, "eisenstein")]
                + [_case_job(case, k, d, "poincare", n) for n in POINCARE_INDICES[:-1]])
    if case == "IIb":
        return [_case_job(case, k, d, disc=D) for D in FUND_DISCS]
    indices = FLIP_INDICES if case in ("Ic", "IIIc") else POINCARE_INDICES
    return [_case_job(case, k, d, index=n) for n in indices]


class Cases(Workload):
    name = "cases"
    help_argv = ("construct", "--help")
    ROUND_S = 3.2
    # (case, k, d): all ten cases, weights on both sides of 1, depths 1..8
    SHAPES = (("Ia", -2, 2), ("Ia", -3, 6), ("Ia", -4, 4),
              ("Ib", -1, 4), ("Ib", -3, 6), ("Ic", -1, 8), ("Ic", -3, 4),
              ("Id", -1, 3), ("Id", -3, 8), ("IIa", 1, 1), ("IIa", 1, 7),
              ("IIb", 1, 3), ("IIb", 1, 8), ("IIIa", 2, 5), ("IIIa", 3, 2),
              ("IIIc", 2, 6), ("IIIc", 3, 3), ("IIId", 2, 8), ("IIId", 4, 4))
    # IIIb has one anchor, so its variants move weight and depth instead,
    # grouped by cost
    IIIB_SLOTS = (tuple((3, d) for d in range(1, 10))
                  + ((4, 1), (4, 2), (4, 3), (4, 4), (5, 1), (5, 2), (6, 1)),
                  ((4, 5), (4, 6), (4, 7), (4, 8), (5, 3), (5, 4), (5, 5), (6, 2),
                   (6, 3), (7, 1), (7, 2), (8, 1)))
    CLI_SHAPES = (("Ia", -3, 2), ("IIb", 1, 4), ("IIIc", 2, 3))

    def _slots(self):
        slots = [_case_variants(*shape) for shape in self.SHAPES]
        slots += [[_case_job("IIIb", k, d) for k, d in s] for s in self.IIIB_SLOTS]
        return slots

    def slots(self, rng):
        return [_shuffled(rng, s) for s in self._slots()]

    def all_jobs(self):
        return [job for s in self._slots() for job in s]

    def _cli(self, job):
        case, k, d, family, index, disc = job.spec
        argv = ["construct", "--case", case, "--k=%d" % k, "--d=%d" % d]
        if family:
            argv.append("--family=" + family)
        if index is not None:
            argv.append("--index=%d" % index)
        if disc is not None:
            argv.append("--disc=%d" % disc)
        return CliJob("cli/" + job.key,
                      (tuple(argv), tuple(argv + ["--json"]),
                       ("classify", "--json", "--in", "-")))

    def cli_jobs(self, rng):
        return _rotation(rng, [_case_variants(*shape) for shape in self.CLI_SHAPES], self._cli)

    def all_cli_jobs(self):
        return [self._cli(job) for shape in self.CLI_SHAPES for job in _case_variants(*shape)]

    def run(self, job):
        case, k, d, family, index, disc = job.spec
        kwargs = {"family": family}
        if index is not None:
            kwargs["index"] = index
        if disc is not None:
            kwargs["disc"] = disc
        form = specsolve.construct_case(case, k, d, **kwargs)
        data = symcalc.form_to_json(form)
        loaded = symcalc.form_from_json(data)
        label = classify.classify_bk(loaded)
        return form, data, loaded, label, classify.expected_dimension_vector(label)

    def record(self, job, out):
        form, data, _loaded, label, dims = out
        return {"pretty": digest(symcalc.pretty(form)), "form": digest(canon(data)),
                "label": digest(canon(label.to_json())), "dims": digest(canon(list(dims)))}

    def problem(self, job, out):
        case, _k, d, *_ = job.spec
        form, _data, loaded, label, _dims = out
        if (label.bk, label.depth) != (case, d):
            return "classified as %s depth %d" % (label.bk, label.depth)
        if loaded != form:
            return "JSON round trip changed the form"
        return None


# ---------------------------------------------------------------------------
# solver: solve_wd, cross-checked by brute_force_wd at small sizes


ORACLE_MAX_BLOCK = 27   # n(d+1) up to which brute_force_wd runs too


def _solver_variants(m, d):
    kb = ((0, "L"), (-1, "L"), (-2, "L"), (-3, "L"), (-4, "L"), (-5, "L"),
          (m + 2, "L"), (m + 3, "L"), (2, "R"), (3, "R"), (4, "R"), (5, "R"),
          (-m, "R"), (-m - 1, "R"), (-m - 2, "R"), (-m - 3, "R"))
    return [Job("k=%d/m=%d/%s/d=%d" % (k, m, b, d), (k, m, b, d)) for k, b in kb]


class Solver(Workload):
    name = "solver"
    help_argv = ("solve", "--help")
    ROUND_S = 3.9
    # an odd count, with the extra slot at the median cost, keeps job_p50_s
    # inside a tier of like jobs rather than on the gap between two
    SIZES = tuple((m, d) for m in (4, 8, 12, 16) for d in (2, 4, 6, 8)) + ((8, 6),)
    CLI_SIZES = ((4, 3), (6, 2), (6, 4), (8, 3), (5, 5), (10, 2))

    def slots(self, rng):
        variants = {size: _shuffled(rng, _solver_variants(*size)) for size in self.SIZES}
        share = {size: VARIANTS // self.SIZES.count(size) for size in self.SIZES}
        # a repeated size splits its variants, so no job repeats in a run
        return [[variants[size].pop() for _ in range(share[size])] for size in self.SIZES]

    def all_jobs(self):
        return [job for size in dict.fromkeys(self.SIZES) for job in _solver_variants(*size)]

    def _cli(self, job):
        k, m, b, d = job.spec
        return CliJob("cli/" + job.key, (("solve", "--json", "--k=%d" % k, "--m=%d" % m,
                                          "--branch=" + b, "--d=%d" % d),))

    def cli_jobs(self, rng):
        return _rotation(rng, [_solver_variants(m, d) for m, d in self.CLI_SIZES], self._cli)

    def all_cli_jobs(self):
        return [self._cli(job) for m, d in self.CLI_SIZES for job in _solver_variants(m, d)]

    def run(self, job):
        k, m, b, d = job.spec
        gv = specsolve.solve_wd(k, m, b, d)
        oracle = specsolve.brute_force_wd(k, m, b, d) if (m + 1) * (d + 1) <= ORACLE_MAX_BLOCK \
            else None
        return gv, oracle

    def record(self, job, out):
        return {"solution": digest(canon(out[0].to_json()))}

    def problem(self, job, out):
        gv, oracle = out
        if oracle is not None and (oracle.layers, oracle.preimage_scale) != \
                (gv.layers, gv.preimage_scale):
            return "solve_wd differs from brute_force_wd"
        return None


# ---------------------------------------------------------------------------
# quiver: cyclic modules, non-cyclic direct sums, Harish-Chandra fragments


TYPE_WORDS = {"*": "star", "+": "plus", "-": "minus"}
FRAGMENT_SEEDS = 64   # fragment seeds are drawn from range(FRAGMENT_SEEDS)


def _module(q, t, c, d):
    return ("module", q, t, c, d)


def _module_key(spec):
    _kind, q, t, c, d = spec
    return "%s/%s%s/d=%d" % (q, t, c, d)


def _job(spec) -> Job:
    kind = spec[0]
    if kind == "module":
        return Job(_module_key(spec), spec)
    if kind == "sum":
        return Job("sum/%s+%s" % (_module_key(spec[1]), _module_key(spec[2])), spec)
    return Job("fragment/l=%d/dim=%d/seed=%d" % spec[1:], spec)


def _g(t, c, d):
    return _module("gelfand", t, c, d)


def _c(t, c, d):
    return _module("cyclic", t, c, d)


class Quiver(Workload):
    name = "quiver"
    help_argv = ("quiver", "classify", "--help")
    ROUND_S = 5.5
    SLOTS = tuple(
        [[_g(t, c, d) for c in "abcd"] for t, ds in (("*", range(1, 8)), ("+", range(1, 5)),
                                                    ("-", range(1, 5))) for d in ds]
        + [[_c("+", "a", 8), _c("+", "b", 9), _c("-", "a", 6), _c("-", "b", 6)],
           [_c("+", "a", 9), _c("+", "b", 8), _c("-", "a", 5), _c("-", "b", 5)],
           [_c("+", "a", 7), _c("+", "b", 7), _c("-", "a", 4), _c("-", "b", 4)],
           [_c("+", "a", 4), _c("+", "b", 6), _c("-", "a", 2), _c("-", "b", 3)],
           [_c("+", "a", 2), _c("+", "b", 3), _c("-", "a", 1), _c("-", "b", 1)],
           [("sum", _g("*", "a", 1), _g("*", "b", 1)), ("sum", _g("+", "a", 1), _g("-", "c", 1)),
            ("sum", _c("+", "a", 1), _c("+", "b", 1)), ("sum", _c("-", "b", 1), _c("+", "a", 2))],
           [("sum", _g("*", "a", 2), _g("*", "b", 2)), ("sum", _g("+", "a", 2), _g("-", "c", 2)),
            ("sum", _g("*", "c", 1), _g("+", "d", 2)), ("sum", _c("+", "a", 2), _c("+", "b", 2))]])
    # (l, dim) of fragment slots; the (5, 4) and (6, 4) ones cost about what
    # the median job costs, which keeps job_p50_s off a gap between tiers
    FRAGMENT_SHAPES = ((1, 3), (2, 2), (3, 4), (4, 3)) + ((5, 4),) * 4 + ((6, 4),) * 4
    CLI_MODULES = (("*", 8), ("*", 9))
    CLI_FRAGMENT = (2, 3)

    def slots(self, rng):
        slots = [_shuffled(rng, [_job(spec) for spec in s]) for s in self.SLOTS]
        seeds = {shape: _shuffled(rng, range(FRAGMENT_SEEDS)) for shape in self.FRAGMENT_SHAPES}
        for shape in self.FRAGMENT_SHAPES:   # repeated shapes take distinct seeds
            slots.append([_job(("fragment", *shape, seeds[shape].pop())) for _ in range(4)])
        return slots

    def all_jobs(self):
        jobs = [_job(spec) for s in self.SLOTS for spec in s]
        jobs += [_job(("fragment", l, dim, s)) for l, dim in dict.fromkeys(self.FRAGMENT_SHAPES)
                 for s in range(FRAGMENT_SEEDS)]
        return jobs

    @staticmethod
    def _cli_module(t, c, d):
        build = ("quiver", "build", "--json", "--quiver=gelfand", "--type=" + TYPE_WORDS[t],
                 "--case=" + c, "--depth=%d" % d)
        return CliJob("cli/gelfand/%s%s/d=%d" % (t, c, d),
                      (build, ("quiver", "classify", "--json", "--in", "-")))

    @staticmethod
    def _cli_fragment(l, dim, seed):
        return CliJob("cli/fragment/l=%d/dim=%d/seed=%d" % (l, dim, seed),
                      (("quiver", "fragment", "--l=%d" % l, "--dim=%d" % dim,
                        "--seed=%d" % seed),
                       ("quiver", "from-hc", "--json", "--iso", "--in", "-")))

    def cli_jobs(self, rng):
        modules = _rotation(rng, [[(t, c, d) for c in "abcd"] for t, d in self.CLI_MODULES],
                            lambda m: self._cli_module(*m))
        seeds = rng.sample(range(FRAGMENT_SEEDS), len(modules))
        return [job for m, s in zip(modules, seeds)
                for job in (m, self._cli_fragment(*self.CLI_FRAGMENT, s))]

    def all_cli_jobs(self):
        jobs = [self._cli_module(t, c, d) for t, d in self.CLI_MODULES for c in "abcd"]
        jobs += [self._cli_fragment(*self.CLI_FRAGMENT, s) for s in range(FRAGMENT_SEEDS)]
        return jobs

    @staticmethod
    def _build(spec):
        _kind, q, t, c, d = spec
        return quiverrep.build_cyclic_module(q, t, c, d)

    def run(self, job):
        spec = job.spec
        if spec[0] == "fragment":
            frag = quiverrep.random_fragment(*spec[1:])
            data = frag.to_json()
            loaded = quiverrep.HCFragment.from_json(data)
            first = quiverrep.hc_to_quiver(loaded)
            second = quiverrep.second_description(loaded)
            t, _x_star, _one = quiverrep.iso_two_descriptions(loaded)
            return data, first, second, t
        rep = self._build(spec) if spec[0] == "module" else \
            quiverrep.direct_sum(self._build(spec[1]), self._build(spec[2]))
        data = rep.to_json()
        loaded = quiverrep.QuiverRep.from_json(data)
        try:
            label = quiverrep.classify_cyclic(loaded)
        except symcalc.DomainError:
            label = None   # the expected answer for a direct sum
        dims, degrees = quiverrep.invariants_of(loaded)
        return data, label, dims, degrees, quiverrep.has_only_trivial_idempotents(loaded)

    def record(self, job, out):
        if job.spec[0] == "fragment":
            data, first, second, t = out
            return {"fragment": digest(canon(data)),
                    "result": digest(canon([first.to_json(), second.to_json(),
                                            [[str(x) for x in row] for row in t]]))}
        data, label, dims, degrees, cert = out
        return {"module": digest(canon(data)),
                "result": digest(canon([label, list(dims), degrees, cert]))}

    def problem(self, job, out):
        spec = job.spec
        if spec[0] == "fragment":
            _data, first, second, _t = out
            if first.dim_vector() != second.dim_vector():
                return "the two descriptions differ in dimension"
            return None
        _data, label, _dims, _degrees, cert = out
        if spec[0] == "module":
            if label != spec[2:]:
                return "classified as %r" % (label,)
            if not cert:
                return "cyclic module reported decomposable"
        elif label is not None or cert:
            return "direct sum reported cyclic or indecomposable"
        return None


# ---------------------------------------------------------------------------
# numeric: one verify_identity row per job


TRUNCS = (100, 200, 400)


class Numeric(Workload):
    name = "numeric"
    help_argv = ("verify", "--help")
    ROUND_S = 2.7
    # CLI runs of the whole suite; truncations near 100 keep them alike in cost
    CLI_RUNS = tuple((suite, n) for n in range(90, 110) for suite in ("eisenstein", "all"))

    @staticmethod
    def _job(name, i, trunc):
        return Job("%s/%d/trunc=%s" % (name, i, trunc), (name, i, trunc))

    def slots(self, rng):
        # within each identity, rows take the truncations in rotation, so
        # every round holds the same mix of cheap and costly rows
        slots = []
        shift = rng.randrange(len(TRUNCS))
        for name, points in numcheck.DEFAULT_POINTS.items():
            for pos, i in enumerate(_shuffled(rng, range(len(points)))):
                if name == "ebasis":   # no truncation: one job, one round
                    slots.append([None] * (pos % len(TRUNCS)) + [self._job(name, i, None)])
                    continue
                slots.append([self._job(name, i, TRUNCS[(pos + shift + r) % len(TRUNCS)])
                              for r in range(len(TRUNCS))])
        # every other slot moves to the odd rounds: twice as many rounds of
        # half the size, so the short pool is spread over the whole run
        # rather than timed in one stretch of the machine's drift
        for k, slot in enumerate(slots):
            slots[k] = [job for variant in slot
                        for job in ((variant, None) if k % 2 == 0 else (None, variant))]
        return slots

    def all_jobs(self):
        return [self._job(name, i, trunc)
                for name, points in numcheck.DEFAULT_POINTS.items()
                for i in range(len(points))
                for trunc in ((None,) if name == "ebasis" else TRUNCS)]

    def _cli(self, suite, n):
        return CliJob("cli/verify/%s/n=%d" % (suite, n),
                      (("verify", "--json", "--suite=" + suite, "--n=%d" % n),))

    def cli_jobs(self, rng):
        return _shuffled(rng, [self._cli(*run) for run in self.CLI_RUNS])

    def all_cli_jobs(self):
        return [self._cli(*run) for run in self.CLI_RUNS]

    def run(self, job):
        name, i, trunc = job.spec
        cfg = numcheck.EvalConfig(trunc=trunc) if trunc else numcheck.DEFAULT_CONFIG
        return numcheck.verify_identity(name, [numcheck.DEFAULT_POINTS[name][i]], cfg)

    @staticmethod
    def _pinned(rows):
        # residuals are floats whose last digits may vary with the platform
        # (the CLI writes the numpy pass flag as a string, hence str())
        return canon([[r["identity"], r["point"], r["tolerance"], str(r["pass"])]
                      for r in rows])

    def record(self, job, out):
        return {"rows": digest(self._pinned(out))}

    def problem(self, job, out):
        failing = [r["identity"] for r in out if not r["pass"]]
        return "residual above tolerance: %s" % failing if failing else None

    def normalize(self, stdout):
        return self._pinned(json.loads(stdout))


WORKLOADS = {w.name: w for w in (Cases(), Solver(), Quiver(), Numeric())}
