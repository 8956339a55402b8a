"""A catalog of mutants of the exact engine's decision points, and its runner.

    python3 tests/mutants.py            # every mutant
    python3 tests/mutants.py NAME ...   # the named ones

Each entry names a file under src/powerlap, the exact text the mutant
replaces (it must occur once), the text it puts in its place, and either
the test files that must kill it or, for a mutant that changes no
result, "equivalent" with a proof.  For each killable mutant the runner
copies src/, tests/ and pyproject.toml to a fresh temporary directory,
applies the mutant there, and runs pytest on the entry's test files,
stopping at the first failure; the mutant is killed when a test fails
(pytest's exit status 1), not when pytest cannot run at all.
The working tree is never written.  Exit status 1 if any mutant
survives or its old text is not found once.

pytest does not collect this file: its name does not start with test_.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str  # under src/powerlap
    old: str
    new: str
    killers: tuple[str, ...] = ()  # test files under tests/
    equivalent: str = ""  # a proof that no result changes, in place of killers


CATALOG = (
    Mutant(
        "table-width",
        "linalg.py",
        "lo, hi = 2**25 - 2**14, 2**25",
        "lo, hi = 2**25 - 2**13, 2**25",
        ("test_linalg.py",),
    ),
    Mutant(
        "table-ascending",
        "linalg.py",
        "np.flatnonzero(alive)[::-1] + lo",
        "np.flatnonzero(alive) + lo",
        ("test_linalg.py",),
    ),
    Mutant(
        "table-exhaustion-unchecked",
        "linalg.py",
        "if taken == len(table):",
        "if taken > len(table):",
        ("test_linalg.py",),
    ),
    Mutant(
        "prefix-past-the-bound-only",
        "linalg.py",
        "while modulus <= 2 * bound:",
        "while modulus <= bound:",
        ("test_linalg.py", "test_spectra.py"),
    ),
    Mutant(
        "prefix-strict-comparison",
        "linalg.py",
        "while modulus <= 2 * bound:",
        "while modulus < 2 * bound:",
        equivalent="the modulus is 1 or a product of odd primes, so odd, and 2 * bound is "
                   "even: they are never equal",
    ),
    Mutant(
        "budget-inclusive",
        "linalg.py",
        "if stack > _MAX_STACK_BYTES:",
        "if stack >= _MAX_STACK_BYTES:",
        ("test_linalg.py",),
    ),
    Mutant(
        "weights-checked-after-the-empty-return",
        "linalg.py",
        """    if len(weights) != m:
        raise ValueError(f"{len(weights)} weights for a {m}-row quotient")
    if m == 0:
        return [1]
""",
        """    if m == 0:
        return [1]
    if len(weights) != m:
        raise ValueError(f"{len(weights)} weights for a {m}-row quotient")
""",
        ("test_linalg.py",),
    ),
    Mutant(
        "replacement-repeats-a-prime",
        "linalg.py",
        "batch.append(table[taken])",
        "batch.append(table[taken - 1])",
        ("test_linalg.py",),
    ),
    Mutant(
        "filter-on-the-second-prime",
        "linalg.py",
        "p = _primes()[0]",
        "p = _primes()[1]",
        ("test_linalg.py",),
    ),
    Mutant(
        "maclaurin-peak-floored",
        "linalg.py",
        "k = min(m, max(0, -(-m * (trace - 1) // (trace + m))))",
        "k = min(m, max(0, m * (trace - 1) // (trace + m)))",
        ("test_linalg.py",),
    ),
    Mutant(
        "restart-takes-its-first-vector-unchecked",
        "linalg.py",
        "        if q.any():\n            break",
        "        if True:\n            break",
        ("test_linalg.py",),
    ),
    Mutant(
        "restart-nonzero-modulo-every-prime",
        "linalg.py",
        "        if q.any():\n            break",
        "        if q.any(axis=0).all():\n            break",
        ("test_linalg.py",),
    ),
    Mutant(
        "zero-norm-drop-never-taken",
        "linalg.py",
        "            if not norm.all():",
        "            if False:",
        ("test_linalg.py",),
    ),
    Mutant(
        "mu-kept-at-a-block-start",
        "linalg.py",
        "q[:], back = _restart(basis[:k], inverses[:k], s, p), 0 * back",
        "q[:] = _restart(basis[:k], inverses[:k], s, p)",
        ("test_linalg.py",),
    ),
    Mutant(
        "lambda-never-updated",
        "linalg.py",
        "            lam = lam * norm % p * norm % p\n",
        "",
        ("test_linalg.py",),
    ),
    Mutant(
        "polynomial-left-unnormalized",
        "linalg.py",
        "(v[d:] * lead % p).T",
        "v[d:].T",
        ("test_linalg.py",),
    ),
    Mutant(
        "root-decided-modulo-the-filter-prime",
        "linalg.py",
        "while not remainder:",
        "while not remainder % p:",
        ("test_linalg.py",),
    ),
    Mutant(
        "candidates-from-2",
        "linalg.py",
        "range(1, hi + 1)",
        "range(2, hi + 1)",
        ("test_linalg.py",),
    ),
    Mutant(
        "zero-constant-term-unchecked",
        "linalg.py",
        "if not coeffs[0]:",
        "if False:",
        ("test_linalg.py",),
    ),
    Mutant(
        "crt-half-read-negative",
        "linalg.py",
        "coeffs.append(c - modulus if c > half else c)",
        "coeffs.append(c - modulus if c >= half else c)",
        ("test_linalg.py",),
    ),
    Mutant(
        "roots-above-counts-the-first-sign",
        "linalg.py",
        "if last and (c < 0) != (last < 0):",
        "if (c < 0) != (last < 0):",
        ("test_linalg.py",),
    ),
    Mutant(
        "leaf-zero-not-recorded",
        "spectra.py",
        "found = ((0, 1), *roots.items())",
        "found = tuple(roots.items())",
        ("test_spectra.py",),
    ),
    Mutant(
        "leaf-zero-unchecked",
        "spectra.py",
        "    if zero:\n        raise ValueError(f\"chi_Q(0)",
        "    if False:\n        raise ValueError(f\"chi_Q(0)",
        ("test_spectra.py",),
    ),
    Mutant(
        "second-places-no-float-below-a-root",
        "spectra.py",
        "below = len(floats) - roots_above(self.residual, r)",
        "below = placed",
        ("test_spectra.py",),
    ),
    Mutant(
        "closed-key-without-itself",
        "graphs.py",
        "return [key[:-1] + tuple(up) for key, up in zip(below, above)]",
        "return [key[:-1] + tuple(up[1:]) for key, up in zip(below, above)]",
        ("test_graphs.py",),
    ),
    Mutant(
        "order-class-sieved-by-one-prime",
        "groups.py",
        "for p in self._primes:",
        "for p in self._primes[:1]:",
        ("test_groups.py",),
    ),
    Mutant(
        "join-keeps-the-rest-zero",
        "spectra.py",
        "            roots[shift + joined] -= 1\n",
        "",
        ("test_spectra.py",),
    ),
    Mutant(
        "weighted-twins-all-open",
        "spectra.py",
        "cross = sizes[i] if adj[i] >> twins[0] & 1 else 0",
        "cross = 0",
        ("test_spectra.py",),
    ),
    Mutant(
        "top-counted-at-n",
        "spectra.py",
        "if top == self.n or not roots_above(self.residual, top):",
        "if not roots_above(self.residual, top):",
        equivalent="L(G) + L(G') = nI - J for the complement G' puts every Laplacian "
                   "eigenvalue at or below n, so at top = n the residual has no root above "
                   "top, the count is 0 and top is returned either way",
    ),
    Mutant(
        "kappa-floor-never-raised",
        "verify.py",
        "while s.count_at_most(k) < 2:",
        "while False:",
        ("test_verify.py",),
    ),
    Mutant(
        "kappa-floor-never-lowered",
        "verify.py",
        "while s.count_at_most(k - 1) >= 2:",
        "while False:",
        ("test_verify.py",),
    ),
    Mutant(
        "prime-read-off-the-root",
        "verify.py",
        "p = tree.children[0].element_order",
        "p = tree.element_order",
        ("test_zoo.py",),
    ),
    Mutant(
        "quaternion-counts-order-four",
        "verify.py",
        "if o == 2)",
        "if o == 4)",
        ("test_verify.py",),
    ),
    Mutant(
        "multiple-property-ignores-its-prime",
        "pgroup.py",
        "value % p != 0",
        "value % 2 != 0",
        ("test_pgroup.py",),
    ),
    Mutant(
        "kappa-flows-past-the-floor",
        "graphs.py",
        "                if best <= floor:",
        "                if best < floor:",
        ("test_graphs.py",),
    ),
    Mutant(
        "kappa-sources-past-the-floor",
        "graphs.py",
        "scanned >= best or best <= floor",
        "scanned >= best or best < floor",
        ("test_graphs.py",),
    ),
    Mutant(
        "min-cut-returns-the-limit",
        "graphs.py",
        "if cap_limit is not None and total >= cap_limit:",
        "if cap_limit is not None and total > cap_limit:",
        ("test_graphs.py",),
    ),
    Mutant(
        "cut-keeps-reached-out-nodes",
        "graphs.py",
        "if via[2 * i] != -1 and via[2 * i + 1] == -1",
        "if via[2 * i] != -1",
        ("test_graphs.py",),
    ),
    Mutant(
        "kappa-stop-strict",
        "graphs.py",
        "scanned >= best or best <= floor",
        "scanned > best or best <= floor",
        equivalent="where >= stops, scanned = best; were best > kappa, scanned > |S| would "
                   "put a scanned class outside a minimum cut S, whose flows find kappa; so "
                   "best = kappa there, and as best is replaced only on a strict improvement, "
                   "scanning on returns the same value and cut",
    ),
)


def run(mutant: Mutant) -> tuple[str, float]:
    """Apply ``mutant`` in a copy of the tree and run its killers: the
    verdict, "killed" with the first failing test, "SURVIVED" or pytest's
    other exit status, and the seconds it took."""
    started = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, copy / part,
                            ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
        shutil.copy(ROOT / "pyproject.toml", copy)
        target = copy / "src" / "powerlap" / mutant.file
        target.write_text(target.read_text().replace(mutant.old, mutant.new))
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
             *(f"tests/{name}" for name in mutant.killers)],
            cwd=copy, capture_output=True, text=True,
        )
    verdict = {0: "SURVIVED", 1: "killed"}.get(proc.returncode, f"pytest exit {proc.returncode}")
    failing = [line.split()[1] for line in proc.stdout.splitlines() if line.startswith("FAILED")]
    return verdict + "".join(f" by {test}" for test in failing[:1]), time.perf_counter() - started


def main(names: list[str]) -> int:
    chosen = [m for m in CATALOG if not names or m.name in names]
    unknown = set(names) - {m.name for m in CATALOG}
    if unknown:
        print(f"unknown mutants: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    failed = 0
    started = time.perf_counter()
    for mutant in chosen:
        count = (ROOT / "src" / "powerlap" / mutant.file).read_text().count(mutant.old)
        if count != 1:
            print(f"{mutant.name}: old text found {count} times in {mutant.file}")
            failed += 1
        elif mutant.equivalent:
            print(f"{mutant.name}: equivalent: {mutant.equivalent}")
        else:
            verdict, seconds = run(mutant)
            print(f"{mutant.name}: {verdict} in {seconds:.1f} s", flush=True)
            failed += not verdict.startswith("killed")
    print(f"{len(chosen)} mutants, {failed} not killed or not found, "
          f"{time.perf_counter() - started:.0f} s")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
