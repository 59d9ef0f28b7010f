"""The seeded-mutant table: which mutations of the library ``verify all``
kills.

Each mutant is an exact text patch ``(file, old, new)`` of one module of
``src/threadsets`` with a one-line reason; ``old`` must occur exactly once.
Per mutant, a copy of ``src/`` is patched under a temporary directory and
``python -m threadsets verify all --format json`` runs on it, one
subprocess at a time.  The table records the exit code, whether the
emitted report's sha256 moved from the unmutated one, and, per failing
property, the number of reports that count a failure of it and the number
of its failures, both read from each failed report's exact
``failures_by_property``.  A mutant is ``timeout`` when its run outlasts
``TIMEOUT_FACTOR`` times the unmutated run's wall time and is killed, with
exit code null; otherwise it is ``killed`` when ``verify all`` exits
non-zero, ``digest`` when it exits 0 with other reports, and otherwise
``survived``, or ``equivalent`` when its entry gives evidence that it
changes no behaviour.

Usage, from the root of the repository (stdlib only; about 4 minutes on
2 cores with CPython 3.11)::

    python tools/mutants.py --out MUTANTS.json
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path
from typing import NamedTuple

SRC = Path(__file__).resolve().parents[1] / "src"
COMMAND = ("-m", "threadsets", "verify", "all", "--format", "json")
TIMEOUT_FACTOR = 10  # a mutant's time limit, in unmutated runs


class Mutant(NamedTuple):
    name: str
    file: str  # relative to src/
    old: str
    new: str
    reason: str
    equivalent: str | None = None  # the evidence, for an equivalent mutant


MUTANTS = (
    Mutant("compose-wide", "threadsets/families.py",
           "        floor = below_all(C)\n",
           "        floor = below_all(C)\n"
           "        if C.bit_count() >= 3:\n"
           "            floor &= floor - 1\n",
           "compose drops the lowest floor bit when the left generator has "
           ">= 3 elements"),
    Mutant("compose-narrow", "threadsets/families.py",
           "            if D & ~floor == 0:\n",
           "            if D & ~(floor & floor - 1 if C.bit_count() >= 3 "
           "and D.bit_count() >= 2 else floor) == 0:\n",
           "the same, but only when the right generator has >= 2 elements "
           "too; no corpus tuple composes such a pair (ROADMAP item 8)"),
    Mutant("d2-form10-side", "threadsets/classify.py",
           "lambda a, b, c: _proper(a, b) and _proper(c, b)),",
           "lambda a, b, c: a != 0 and _proper(a, b) and _proper(c, b)),",
           "D2_Form10's side condition also asks a != 0"),
    Mutant("d1-mixed-alias", "threadsets/classify.py",
           '"D1_Mixed": (_D1, ("C", "D"), "D2_Form5"),',
           '"D1_Mixed": (_D1, ("C", "D"), "D2_Form7"),',
           "D1_Mixed aliases D2_Form7, whose tuple is the same with no "
           "bottom but which has no side condition"),
    Mutant("d2-form1-side", "threadsets/classify.py",
           '"D2_Form1": _Form(_D2, ("A1",), lambda t, m, a: (a,), bool),',
           '"D2_Form1": _Form(_D2, ("A1",), lambda t, m, a: (a,)),',
           "D2_Form1 drops its non-empty side condition"),
    Mutant("d2-form2-side", "threadsets/classify.py",
           '"D2_Form2": _Form(_D2, ("A1",), lambda t, m, a: (t | a,)),',
           '"D2_Form2": _Form(_D2, ("A1",), lambda t, m, a: (t | a,), bool),',
           "D2_Form2 asks a non-empty payload"),
    Mutant("d2-form3-side", "threadsets/classify.py",
           '"D2_Form3": _Form(_D2, ("A1",), lambda t, m, a: (a | m,)),',
           '"D2_Form3": _Form(_D2, ("A1",), lambda t, m, a: (a | m,), bool),',
           "D2_Form3 asks a non-empty payload"),
    Mutant("d2-form4-side", "threadsets/classify.py",
           '"D2_Form4": _Form(_D2, ("A1",), lambda t, m, a: (t | a | m,)),',
           '"D2_Form4": _Form(_D2, ("A1",), lambda t, m, a: (t | a | m,),\n'
           '                      bool),',
           "D2_Form4 asks a non-empty payload"),
    Mutant("d2-form5-side", "threadsets/classify.py",
           '"D2_Form5": _Form(_D2, ("A1", "B1"), lambda t, m, a, b: (t | a, b),'
           '\n                      _proper),',
           '"D2_Form5": _Form(_D2, ("A1", "B1"), lambda t, m, a, b: (t | a, b),'
           '\n                      lambda a, b: a | b == b),',
           "D2_Form5's proper inclusion A1 < B1 becomes A1 <= B1"),
    Mutant("d2-form6-side", "threadsets/classify.py",
           '"D2_Form6": _Form(_D2, ("A1", "B1"), lambda t, m, a, b: (a, b | m),'
           '\n                      lambda a, b: _proper(b, a)),',
           '"D2_Form6": _Form(_D2, ("A1", "B1"), lambda t, m, a, b: (a, b | m),'
           '\n                      lambda a, b: a | b == a),',
           "D2_Form6's proper inclusion B1 < A1 becomes B1 <= A1"),
    Mutant("d2-form7-side", "threadsets/classify.py",
           '"D2_Form7": _Form(_D2, ("A1", "B1"), '
           'lambda t, m, a, b: (t | a, b | m)),',
           '"D2_Form7": _Form(_D2, ("A1", "B1"), '
           'lambda t, m, a, b: (t | a, b | m),\n'
           '                      lambda a, b: bool(a | b)),',
           "D2_Form7 asks a non-empty payload"),
    Mutant("d2-form8-side", "threadsets/classify.py",
           '"D2_Form8": _Form(_D2, ("A1", "B1"),\n'
           '                      lambda t, m, a, b: (t | a, t | b | m),\n'
           '                      lambda a, b: _proper(b, a)),',
           '"D2_Form8": _Form(_D2, ("A1", "B1"),\n'
           '                      lambda t, m, a, b: (t | a, t | b | m),\n'
           '                      lambda a, b: a | b == a),',
           "D2_Form8's proper inclusion B1 < A1 becomes B1 <= A1"),
    Mutant("d2-form9-side", "threadsets/classify.py",
           '"D2_Form9": _Form(_D2, ("A1", "B1"),\n'
           '                      lambda t, m, a, b: (t | a | m, b | m), '
           '_proper),',
           '"D2_Form9": _Form(_D2, ("A1", "B1"),\n'
           '                      lambda t, m, a, b: (t | a | m, b | m),\n'
           '                      lambda a, b: a | b == b),',
           "D2_Form9's proper inclusion A1 < B1 becomes A1 <= B1"),
    Mutant("d2-form11-side", "threadsets/classify.py",
           '"D2_Form11": _Form(_D2, ("A1", "B1", "C1"),\n'
           '                       lambda t, m, a, b, c: '
           '(t | a, t | b | m, c | m),\n'
           '                       lambda a, b, c: _proper(b, a & c)),',
           '"D2_Form11": _Form(_D2, ("A1", "B1", "C1"),\n'
           '                       lambda t, m, a, b, c: '
           '(t | a, t | b | m, c | m),\n'
           '                       lambda a, b, c: b | (a & c) == a & c),',
           "D2_Form11's proper inclusion B1 < A1 & C1 becomes "
           "B1 <= A1 & C1"),
    Mutant("minimize-keeps-long", "threadsets/families.py",
           "            if g & c == g:\n                break\n",
           "            if g & c == g and c.bit_count() < 3:\n"
           "                break\n",
           "minimize keeps every chain of >= 3 elements, even one above a "
           "kept generator"),
    Mutant("prune-upward-third", "threadsets/tuples.py",
           "        last = part & P.down_set(last)\n",
           "        last = part if len(out) == 2 else part & P.down_set(last)\n",
           "prune_upward leaves the third part unpruned"),
    Mutant("chains-skip-four", "threadsets/poset.py",
           "                yield chain | low\n",
           "                if (chain | low).bit_count() != 4:\n"
           "                    yield chain | low\n",
           "Poset.chains skips 4-element chains"),
    Mutant("collapse-pops-equal", "threadsets/tuples.py",
           "            if part | last == part:  # contains or equals last: "
           "drop part\n",
           "            if part | last == part and part != last:\n",
           "collapse pops an equal neighbour instead of dropping the part",
           equivalent="an equal neighbour is popped and the part is kept in "
                      "its place, since the kept part below it is "
                      "incomparable with it; the same output as collapse on "
                      "every tuple of 3-bit masks with k <= 5"),
    Mutant("collapse-drops-inner", "threadsets/tuples.py",
           "            kept.pop()  # strictly inside last: drop last, compare "
           "again\n",
           "            break\n",
           "collapse drops a part strictly inside the last kept part instead "
           "of the kept part, which contains it"),
    Mutant("d2-form2-test", "threadsets/classify.py",
           "        if f0 == d:\n", "        if f0 != d:\n",
           "classify_dim2 swaps D2_Form2 and D2_Form8 when {t} is a member"),
    Mutant("d2-form3-test", "threadsets/classify.py",
           "        if f0 == e:\n", "        if f0 != e:\n",
           "classify_dim2 swaps D2_Form3 and D2_Form9 when {m} is a member"),
    Mutant("d2-form7-test", "threadsets/classify.py",
           "        if d & e == f0:\n", "        if d & e != f0:\n",
           "classify_dim2 swaps D2_Form7 and D2_Form11 when {t, m} is a "
           "member"),
    Mutant("d2-form5-test", "threadsets/classify.py",
           "        elif f0 == d and e == g:\n", "        elif f0 == d:\n",
           "classify_dim2 drops D2_Form5's test e == g"),
    Mutant("d2-form6-test", "threadsets/classify.py",
           "        elif f0 == e and d == g:\n", "        elif f0 == e:\n",
           "classify_dim2 drops D2_Form6's test d == g"),
    Mutant("d2-form10-test", "threadsets/classify.py",
           "        elif d & e == f0:", "        elif d & e != f0:",
           "classify_dim2 negates D2_Form10's test d & e == f0"),
    Mutant("stratum-admits-pairs", "threadsets/classify.py",
           "        if rest & (rest - 1) == 0:\n",
           "        if (rest & (rest - 1)).bit_count() <= 1:\n",
           "a classifier stratum also takes in a remainder of two elements"),
    Mutant("prune-downward-first", "threadsets/tuples.py",
           "        last = part & P.up_set(last)\n",
           "        last = part if len(out) == 2 else part & P.up_set(last)\n",
           "prune_downward leaves the first of three parts unpruned"),
    Mutant("restrict-first-only", "threadsets/tuples.py",
           "    return tuple(part & zone for part in parts)\n",
           "    return (parts[0] & zone,) + parts[1:]\n",
           "restrict intersects only the first part with the zone"),
    Mutant("extend-keeps-dominated", "threadsets/families.py",
           "            for C1 in closed.get(d, ()):\n",
           "            for C1 in ():\n",
           "the thread_sets fold step drops its least-element domination "
           "test and keeps every product C | d of an open generator"),
    Mutant("extend-opens-closed", "threadsets/families.py",
           "            closed.setdefault(least, []).append(C)\n",
           "            closed.setdefault(least, []).append(C)\n"
           "            open_.append((C, under & A & ~least))\n",
           "the thread_sets fold step also emits the products C | d, d < c, "
           "of a generator whose least element c lies in the part"),
    Mutant("down-set-drops-lowest", "threadsets/poset.py",
           "        return self._miss(0, self._down_sets, mask) if out is None "
           "else out\n",
           "        kept = mask\n"
           "        if kept.bit_count() >= 3:\n"
           "            kept &= kept - 1\n"
           "        return self._miss(0, self._down_sets, kept) if out is None "
           "else out\n",
           "Poset.down_set drops the lowest member of masks with >= 3 "
           "members"),
    Mutant("walk-strict-descent", "threadsets/tuples.py",
           "parts[len(sequence)] & down[a]))\n",
           "parts[len(sequence)] & down[a] & ~low))\n",
           "the thread walk forbids repeated elements along a thread"),
    Mutant("canonical-collapses-first", "threadsets/tuples.py",
           "    _check(parts)\n    up = parts[0]\n",
           "    return prune_to_threads(P, collapse(parts))\n"
           "    up = parts[0]\n",
           "canonical collapses the tuple before pruning it to its threads"),
    Mutant("canonical-never-pops", "threadsets/tuples.py",
           "            kept.pop()  # strictly inside top: drop top, compare "
           "again\n",
           "            break\n",
           "canonical's backward collapse drops a part strictly inside its "
           "right neighbour instead of popping the neighbour"),
    Mutant("canonical-zero-late", "threadsets/tuples.py",
           "        if not up:\n",
           "        if not up and len(pruned) < len(parts) - 1:\n",
           "canonical's early exit skips the last part, so a tuple whose "
           "last part alone empties reaches the backward pass",
           equivalent="once a forward part empties, every later part is "
                      "part & down_set(0) = 0 and the backward pass keeps "
                      "only (0,); the same canonical as the unmutated one "
                      "on all 1 046 566 tuples of the labeled posets with "
                      "n <= 3 at k <= 4 and n = 4 at k <= 3"),
    Mutant("prune-to-threads-skips-upward", "threadsets/tuples.py",
           "    return prune_downward(P, prune_upward(P, parts))\n",
           "    return prune_downward(P, parts)\n",
           "prune_to_threads leaves out the upward prune"),
    Mutant("byte-gather-step-seven", "threadsets/poset.py",
           "            rest >>= 8\n",
           "            rest >>= 7\n",
           "the byte gather of the subset operators shifts the mask by 7 "
           "bits, which only a poset with n >= 8 reaches"),
    Mutant("floor-bytes-uncomplemented", "threadsets/poset.py",
           "_union_bytes([r ^ flip for r in rows])\n",
           "_union_bytes(rows)\n",
           "below_all gathers from byte tables over the down rows, not over "
           "their complements"),
)


def occurrences(mutant: Mutant) -> int:
    return (SRC / mutant.file).read_text(encoding="utf-8").count(mutant.old)


def failing_properties(reports: list[dict]) -> dict[str, dict[str, int]]:
    """Per failing property, the number of reports that count a failure of
    it and the number of its failures."""
    counts: dict[str, Counter] = {}
    for report in reports:
        for prop, n in report.get("failures_by_property", {}).items():
            counts.setdefault(prop, Counter()).update(reports=1, failures=n)
    return {prop: dict(counts[prop]) for prop in sorted(counts)}


def _verify_all(src: Path,
                timeout: float | None = None) -> tuple[int | None, str, dict]:
    """Exit code, sha256 of stdout and the failing properties; an
    unparsable stdout names none, and a run killed after ``timeout``
    seconds has exit code None and names none."""
    env = dict(os.environ, PYTHONPATH=str(src))
    try:
        run = subprocess.run([sys.executable, *COMMAND], env=env, cwd=src,
                             capture_output=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:  # run has killed the child
        return None, hashlib.sha256(exc.stdout or b"").hexdigest(), {}
    try:
        reports = json.loads(run.stdout)["reports"]
    except (ValueError, KeyError):
        reports = []
    return (run.returncode, hashlib.sha256(run.stdout).hexdigest(),
            failing_properties(reports))


def _row(mutant: Mutant, unmutated: str, limit: float) -> dict:
    count = occurrences(mutant)
    if count != 1:
        raise SystemExit(f"{mutant.name}: the old text occurs {count} times "
                         f"in {mutant.file}, not once")
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(SRC, src,
                        ignore=shutil.ignore_patterns("__pycache__"))
        target = src / mutant.file
        text = target.read_text(encoding="utf-8")
        target.write_text(text.replace(mutant.old, mutant.new),
                          encoding="utf-8")
        code, digest, failing = _verify_all(src, limit)
    moved = digest != unmutated
    if code is None:
        verdict = "timeout"
    elif code != 0:
        verdict = "killed"
    elif moved:
        verdict = "digest"
    else:
        verdict = "equivalent" if mutant.equivalent else "survived"
    row = {"name": mutant.name, "file": mutant.file, "reason": mutant.reason,
           "exit": code, "digest_moved": moved, "verdict": verdict,
           "failing": failing}
    if mutant.equivalent:
        row["equivalence"] = mutant.equivalent
    return row


def table() -> dict:
    start = time.perf_counter()
    code, unmutated, failing = _verify_all(SRC)
    limit = TIMEOUT_FACTOR * (time.perf_counter() - start)
    if code != 0 or failing:
        raise SystemExit(f"verify all fails on the unmutated source "
                         f"(exit {code})")
    rows = []
    for mutant in MUTANTS:
        rows.append(_row(mutant, unmutated, limit))
        print(f"{mutant.name}: {rows[-1]['verdict']} "
              f"(exit {rows[-1]['exit']})",
              file=sys.stderr)
    return {"command": "python " + " ".join(COMMAND),
            "unmutated_sha256": unmutated,
            "verdicts": dict(sorted(Counter(r["verdict"]
                                            for r in rows).items())),
            "mutants": rows}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Run verify all on each seeded mutant of src/.")
    parser.add_argument("--out", type=Path,
                        help="write the table here instead of stdout")
    args = parser.parse_args(argv)
    text = json.dumps(table(), indent=2) + "\n"
    if args.out:
        args.out.write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
