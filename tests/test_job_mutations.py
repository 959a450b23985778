"""Seeded mutations of the golden jobs, run in process through `cli.main`.

Each case takes one job of `tests/jobs` and changes one thing in it: a
number, an arity, the levels of an ambient group, a radicand, the text of
an element, or the number of elements.  Whatever comes out, the job must
end in exit code 0, 1 or 2; a failure prints exactly one stderr line and no
traceback; and every place that a successful job prints is accepted by
`classify`.  A failure found here gets a fix in the program, never a looser
assertion.

Tower mutations change whole places instead: the inner and outer places of
the golden composite jobs are swapped between those jobs, and a job's place
is replaced by a seeded `gen.random_tower` of depth 1-3, nested either way.
The same three assertions hold for them.

Summand mutations put a sum of at most eight fractions in place of one
element, each fraction's denominator a polynomial of two or more terms:
the shape of a sum that parsing must bring over one common denominator.

Every job pays for one schema validation (about 14 ms), so the case count
is kept small: the seeds are fixed, so every run checks the same cases.
"""

import copy
import json
import pathlib
import random

import pytest

from placeforge import BaseField
from placeforge.cli import main

from gen import random_tower

JOBS = sorted((pathlib.Path(__file__).resolve().parent / "jobs").glob("*.json"))
CASES_PER_JOB = 6

NUMBERS = (0, 1, -1, 2, 3, -7, 48, 49, 10**12, 10**30, 1.5, True, None)
LITERALS = ("0", "1", "-1", "1/2", "-3/4", "2/0", "0/5", "007", "1/-2", "x", "", "1e3",
            "9" * 40, "1/" + "3" * 40, "9" * 1001)
RADICANDS = (-5, 0, 1, 2, 3, 4, 5, 6, 7, 9, 12, 10**12, 10**12 + 1)
TOKENS = ("x1", "x2", "x3", "x9", "s", "u1", "^", "^-3", "^0", "^99999999999", "-", "+", "*",
          "/", "(", ")", "0", "7", "1/0", " ", "^^", "**", "3/4", ".")


def _places(node):
    """The monomial place objects inside a place object."""
    if not isinstance(node, dict):
        return []
    if node.get("kind") == "composite":
        return _places(node.get("inner")) + _places(node.get("outer"))
    return [node]


def _job_places(job):
    return _places(job.get("place")) + _places(job.get("outer"))


def _number_slots(node, slots):
    """(container, key) of every number and every number literal in `node`."""
    for key, value in node.items() if isinstance(node, dict) else enumerate(node):
        if isinstance(value, (dict, list)):
            _number_slots(value, slots)
        elif isinstance(value, int) and not isinstance(value, bool) or key in ("a", "b"):
            slots.append((node, key))
    return slots


def mutate_number(rng, job):
    slots = _number_slots(job, [])
    node, key = rng.choice(slots)
    old = node[key]
    if isinstance(old, str):
        node[key] = rng.choice(LITERALS + (f"{rng.randint(-9, 9)}/{rng.randint(1, 9)}", 3))
    else:
        node[key] = rng.choice(NUMBERS + (old + rng.choice((-1, 1)), str(old)))


def mutate_arity(rng, job):
    places = _job_places(job)
    node = rng.choice(places + [job])
    old = node.get("arity", 2)
    node["arity"] = rng.choice((old - 1, old + 1, 0, 1, 40, -1))


def mutate_levels(rng, job):
    """Add or drop a level of one place's ambient group, in its weights too
    or (an inconsistent place) only in the ambient."""
    node = rng.choice(_job_places(job))
    levels, weights = node["ambient"]["levels"], node["weights"]
    both = rng.random() < 0.7
    if len(levels) > 1 and rng.random() < 0.5:
        levels.pop(rng.randrange(len(levels)))
        if both:
            for w in weights:
                w.pop()
    else:
        levels.append({"d": rng.choice((2, 3, 5))})
        if both:
            for w in weights:
                w.append({"a": rng.choice(("0", "1", "-1/2")), "b": rng.choice(("0", "1"))})


def mutate_radicand(rng, job):
    node = rng.choice(_job_places(job))
    rng.choice(node["ambient"]["levels"])["d"] = rng.choice(RADICANDS)


def _text_slots(job):
    return [(job[key], i) for key in ("elems", "A", "B") for i in range(len(job.get(key, ())))]


def mutate_text(rng, job):
    slots = _text_slots(job)
    if not slots:
        job["elems"] = [rng.choice(TOKENS)]
        return
    texts, i = rng.choice(slots)
    s = texts[i]
    cut = rng.randint(0, len(s))
    op = rng.randrange(5)
    if op == 0:
        texts[i] = s[:cut] + rng.choice(TOKENS) + s[cut:]
    elif op == 1:
        texts[i] = s[:cut] + s[cut + rng.randint(1, 3):]
    elif op == 2:
        texts[i] = f"({s})^{rng.choice((2, 5, -3, 30))}"
    elif op == 3:
        texts[i] = f"({s})*({s})+({s})/({s} + 1)"
    else:
        texts[i] = rng.choice(("", " ", "()", s * 2, "x1" * 3, "(" * 40 + "x1" + ")" * 40))


def mutate_count(rng, job):
    key = rng.choice(("elems", "A", "B"))
    texts = job.setdefault(key, [])
    op = rng.randrange(4)
    if op == 0 and texts:
        texts.pop(rng.randrange(len(texts)))
    elif op == 1:
        texts.clear()
    elif op == 2 and texts:
        texts.append(rng.choice(texts))
    else:
        texts.extend(f"x1^{i} + {i}" for i in range(rng.choice((3, 49))))


MUTATIONS = (mutate_number, mutate_arity, mutate_levels, mutate_radicand, mutate_text,
             mutate_count)


def mutated_jobs(seed, count):
    """`count` seeded mutants of every job: (name, job)."""
    rng = random.Random(seed)
    originals = [(path.stem, json.loads(path.read_text())) for path in JOBS]
    for _ in range(count):
        for name, original in originals:
            job = copy.deepcopy(original)
            mutation = rng.choice(MUTATIONS)
            mutation(rng, job)
            yield f"{name}/{mutation.__name__}", job


def run_job(job, tmp_path, capsys):
    """(exit code, stdout, stderr) of the job through cli.main, in process."""
    path = tmp_path / "job.json"
    path.write_text(json.dumps(job))
    try:
        code = main(["--spec", str(path)])
    except Exception as exc:  # the command line would print a traceback
        pytest.fail(f"raised {exc!r} on {json.dumps(job)}")
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def check_job(name, job, tmp_path, capsys):
    """The assertions on one mutated job; returns its exit code."""
    code, out, err = run_job(job, tmp_path, capsys)
    blob = f"{name}: {json.dumps(job)}"
    assert code in (0, 1, 2), blob
    if code:
        assert out == "" and err.count("\n") == 1 and err.endswith("\n"), (blob, err)
        assert "Traceback" not in err, blob
        return code
    assert err == "", blob
    place = json.loads(out)["place"]
    code, out, err = run_job({"command": "classify", "place": place}, tmp_path, capsys)
    assert (code, err) == (0, ""), (blob, err)
    return 0


def test_mutated_jobs_end_in_one_line_or_a_place_classify_accepts(tmp_path, capsys):
    codes = {0: 0, 1: 0, 2: 0}
    for name, job in mutated_jobs(0, CASES_PER_JOB):
        codes[check_job(name, job, tmp_path, capsys)] += 1
    # the mutants reach past the schema: some still succeed, some infeasible
    assert min(codes.values()) > 0, codes


def _part_slots(job):
    """(container, key) of the two parts of a composite job: the inner and
    outer of a composite place, or a compose job's place and outer."""
    if job["command"] == "compose":
        return [(job, "place"), (job, "outer")]
    return [(job["place"], "inner"), (job["place"], "outer")]


def swapped_jobs():
    """Every golden composite job with one of its parts replaced by a
    different part of any of them: (name, job)."""
    originals = [(path.stem, json.loads(path.read_text())) for path in JOBS]
    composite = [(name, job) for name, job in originals
                 if job["command"] == "compose" or job["place"].get("kind") == "composite"]
    parts = []
    for _, job in composite:
        parts += [node[key] for node, key in _part_slots(job) if node[key] not in parts]
    for name, original in composite:
        for slot in range(2):
            for part in parts:
                job = copy.deepcopy(original)
                node, key = _part_slots(job)[slot]
                if node[key] != part:
                    node[key] = copy.deepcopy(part)
                    yield f"{name}/{key}", job


def tower_jobs(seed, count):
    """`count` mutants of every job whose place (or a compose job's outer
    place) is a random tower of depth 1-3 on the same variables, nested on
    its inner or its outer side: (name, job)."""
    rng = random.Random(seed)
    originals = [(path.stem, json.loads(path.read_text())) for path in JOBS]
    for i in range(count):
        for name, original in originals:
            job = copy.deepcopy(original)
            key = rng.choice([k for k in ("place", "outer") if k in job])
            inner = _places(job[key])[0]
            field, arity = BaseField.from_json(inner["base"]), inner["arity"]
            nest = ("inner", "outer")[i % 2]
            job[key] = random_tower(rng, field, arity, rng.random() < 0.5, rng.randint(1, 3),
                                    nest).to_json()
            yield f"{name}/{key}-tower-{nest}", job


MAX_SUMMANDS = 8


def _names(job):
    """The variable names of a job's elements."""
    if "vars" in job:
        return job["vars"]
    arity = _job_places(job)[0]["arity"]
    return [f"x{i}" for i in range(1, arity + 1)]


def _monomial(rng, names, max_degree, taken):
    """A nonconstant monomial, as text, whose exponent vector is not in
    `taken`; the vector is added to `taken`."""
    while True:
        e = tuple(rng.randint(0, max_degree) if rng.random() < 0.6 else 0 for _ in names)
        if any(e) and e not in taken:
            taken.add(e)
            return "*".join(v if k == 1 else f"{v}^{k}" for v, k in zip(names, e) if k)


def _denominator(rng, names):
    """A polynomial of two or more distinct terms: a binomial (two
    monomials, or a monomial and a constant that is not 0 mod 5), a
    product of two binomials, or a trinomial."""
    def binomial():
        taken = set()
        other = rng.choice((str(rng.randint(1, 4)), _monomial(rng, names, 2, taken)))
        return f"{_monomial(rng, names, 2, taken)} {rng.choice('+-')} {other}"

    kind = rng.randrange(3)
    if kind == 0:
        return binomial()
    if kind == 1:
        return f"({binomial()})*({binomial()})"
    taken = set()
    return f"{_monomial(rng, names, 2, taken)} + {_monomial(rng, names, 1, taken)} + {rng.randint(1, 4)}"


def summand_text(rng, names):
    """A sum of 2 to MAX_SUMMANDS fractions c*m/(q), q non-monomial."""
    text = ""
    for k in range(rng.randint(2, MAX_SUMMANDS)):
        c = rng.choice((1, -1, 2, -3, 7))
        num = _monomial(rng, names, 3, set()) if rng.random() < 0.8 else "1"
        text += (" - " if c < 0 else " + ") if k else ("-" if c < 0 else "")
        text += f"{abs(c)}*{num}/({_denominator(rng, names)})"
    return text


def summand_jobs(seed, count):
    """`count` mutants of every job with elements, one element replaced by
    a sum of fractions with non-monomial denominators: (name, job)."""
    rng = random.Random(seed)
    originals = [(path.stem, json.loads(path.read_text())) for path in JOBS]
    for _ in range(count):
        for name, original in originals:
            job = copy.deepcopy(original)
            slots = _text_slots(job)
            if not slots:
                continue
            texts, i = rng.choice(slots)
            texts[i] = summand_text(rng, _names(job))
            yield f"{name}/summands", job


def test_summand_mutants_end_in_one_line_or_a_place_classify_accepts(tmp_path, capsys):
    codes = {0: 0, 1: 0, 2: 0}
    for name, job in summand_jobs(0, 4):
        codes[check_job(name, job, tmp_path, capsys)] += 1
    # the sums reach every command that takes elements: most succeed
    assert codes[0] > codes[1] + codes[2], codes


def test_tower_mutants_end_in_one_line_or_a_place_classify_accepts(tmp_path, capsys):
    codes = {0: 0, 1: 0, 2: 0}
    for name, job in [*swapped_jobs(), *tower_jobs(0, 2)]:
        codes[check_job(name, job, tmp_path, capsys)] += 1
    # towers reach the commands: most succeed, and some swaps are refused
    assert codes[0] > codes[1] + codes[2] > 0, codes
