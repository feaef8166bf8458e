#!/usr/bin/env python3
"""Apply mutants to a copy of the package and print the tests that kill each.

    python3 tools/mutants.py [--rev REV]

Each mutant in ``CATALOGUE`` makes one or more edits together; each edit
replaces one literal text, which must occur exactly once, in a file under
``src/smap``.  The tree under test is the working tree, or REV exported
with ``git archive``; its ``src/``, ``tests/`` and ``pyproject.toml`` are
copied into a temporary directory.  There the unmutated copy runs first,
then each mutant in turn.  Each run is one pytest process over Tier-1
without the files in ``EXCLUDED``, so only semantic checks count.  Mutants
run one after another; no process pool is started.

Prints, per mutant, the tests that fail on it (that kill it), or SURVIVED,
or "not applicable" when one of its old texts is not in its file exactly
once; then the kill count and each survivor.  Exits 1 if the unmutated copy fails a test.
Writes nothing in the repository.  A run takes about 40 s per mutant on
2 vCPU, so this stays out of Tier-1.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

import trees

# pinned bytes, the benchmark's self-test, and the tools (not in the copy): not meaning
EXCLUDED = ("tests/test_golden.py", "tests/test_benchmark_contract.py", "tests/test_tools.py")
TIMEOUT_S = 900  # a mutant that makes the suite hang counts as killed


class Mutant(NamedTuple):
    name: str
    edits: tuple[tuple[str, str, str], ...]  # (path relative to src/smap, old, new), made together


CATALOGUE = (
    # the seven of the first mutation probe
    Mutant("preserve-rtol-1e-6", (
        ("robustness.py", "PRESERVE_RTOL = 1e-12", "PRESERVE_RTOL = 1e-6"),
    )),
    Mutant("checker-gram-without-small-delta", (
        ("robustness.py", "sols = solve_spd(gram(window.X), rhs, delta)",
         "sols = solve_spd(gram(window.X), rhs, delta if delta >= 1e-6 else 0.0)"),
    )),
    Mutant("cholesky-lead-misplaced", (("linalg.py", "y[:j] = lead", "y[-j:] = lead"),)),
    Mutant("gate-at-the-threshold", (
        ("filters.py", "return abs(e0) > gamma_bar", "return abs(e0) >= gamma_bar"),
    )),
    Mutant("rhs-absolute", (
        ("robustness.py", "rhs = 2.0 * float(cv @ sols[:, 1])",
         "rhs = 2.0 * abs(float(cv @ sols[:, 1]))"),
    )),
    Mutant("padded-lag-mask-off-by-one", (  # in both engines, which agreement tests cannot see
        ("sim.py", "cv = np.where(lag <= k, cv, 0.0)", "cv = np.where(lag < k, cv, 0.0)"),
        # as run_single masks: SM-AP only, and only while k < L (AP's padded lags are 0)
        ("sim.py", "np.copyto(cv, 0.0, where=lag > np.reshape(steps, (-1, 1)))",
         "ks = np.reshape(steps, (-1, 1)); "
         "np.copyto(cv, 0.0, where=(lag > ks) | (lag == ks) & (ks < L) & (not ap))"),
    )),
    Mutant("ratio-denominator-without-w0", (
        ("robustness.py", "denominator = float(w_tilde_0_sq) + n_sum", "denominator = n_sum"),
    )),
    # one boundary flip per entry of errors.RANGES
    Mutant("range-gamma-bar-takes-0", (
        ("errors.py", '"gamma_bar": (lambda v: 0.0 < v', '"gamma_bar": (lambda v: 0.0 <= v'),
    )),
    Mutant("range-delta-refuses-0", (
        ("errors.py", '"delta": (lambda v: 0.0 <= v', '"delta": (lambda v: 0.0 < v'),
    )),
    Mutant("range-ap-step-refuses-1", (
        ("errors.py", '"ap_step": (lambda v: 0.0 < v <= 1.0',
         '"ap_step": (lambda v: 0.0 < v < 1.0'),
    )),
    Mutant("range-noise-variance-takes-0", (
        ("errors.py", '"noise_variance": (lambda v: 0.0 < v',
         '"noise_variance": (lambda v: 0.0 <= v'),
    )),
    Mutant("range-ar-coefficient-takes-1", (
        ("errors.py", "(lambda v: abs(v) < 1.0", "(lambda v: abs(v) <= 1.0"),
    )),
    Mutant("range-scale-refuses-0", (
        ("errors.py", '"scale": (lambda v: 0.0 <= v', '"scale": (lambda v: 0.0 < v'),
    )),
    # the type rule, the gate, the constraint band, the quiet record, the tie band, the tail
    Mutant("range-without-type-test", (  # float() alone takes '0.3' and refuses None bare
        ("errors.py", "if not (isinstance(value, float) or isinstance(value, numbers.Real)):",
         "if False:"),
    )),
    Mutant("gate-on-the-oldest-error", (  # e[-1], not e[1]: at L = 0 the window holds one error
        ("sim.py", "config.gamma_bar < abs(e[0]) < math.inf",
         "config.gamma_bar < abs(e[-1]) < math.inf"),
        ("filters.py", "fires = indicator(e[0], gamma_bar)", "fires = indicator(e[-1], gamma_bar)"),
        # the ensemble's many-step loop (L >= 1; at L = 0 the oldest error is the newest):
        # step i's window is e[:, h-1-i : h-1-i+L+1], so its oldest error is e[:, h-1-i+L]
        ("sim.py", "fires = ~(np.abs(e0) <= gamma_bar)",
         "fires = ~(np.abs(e[:, h - 1 + L : L - 1 : -1]) <= gamma_bar)"),
    )),
    Mutant("sccv-band-doubled", (
        ("constraints.py", "cv = np.minimum(np.maximum(prior, -gamma_bar), gamma_bar)",
         "cv = np.minimum(np.maximum(prior, -2 * gamma_bar), 2 * gamma_bar)"),
    )),
    Mutant("quiet-record-holds-w0", (
        ("sim.py", "m = float(misalignment[k + 1])", "m = float(misalignment[0])"),
    )),
    Mutant("tie-band-without-floor-of-1", (
        ("robustness.py", "return (gap <= PRESERVE_RTOL) | (gap <= PRESERVE_RTOL * rhs)",
         "return gap <= PRESERVE_RTOL * rhs"),
    )),
    Mutant("steady-state-tail-one-longer", (
        ("sim.py", "tail = curve[-max(1, int(curve.size * 0.2)) :]",
         "tail = curve[-max(1, int(curve.size * 0.2)) - 1 :]"),
    )),
    # the gate's threshold rule, the SNR's range, the carried misalignment, and the gate's
    # boundary moved in both engines at once, which engine-agreement tests cannot see
    Mutant("gate-skips-threshold-rule", (
        ("filters.py", '    gamma_bar = in_range(gamma_bar, "gamma_bar")\n', ""),
    )),
    Mutant("snr-range-takes-infinity", (
        ("errors.py", '"snr_db": (math.isfinite,', '"snr_db": (lambda v: not math.isnan(v),'),
    )),
    Mutant("misalignment-not-carried", (
        ("sim.py", "misalignment[k + 1] = wt_sq",
         "misalignment[k + 1] = wt_sq if updated else misalignment[0]"),
    )),
    Mutant("gate-at-the-threshold-in-both-engines", (
        ("filters.py", "return abs(e0) > gamma_bar", "return abs(e0) >= gamma_bar"),
        ("sim.py", "config.gamma_bar < abs(e[0])", "config.gamma_bar <= abs(e[0])"),
        ("sim.py", "(~(np.abs(e0) <= gamma_bar))", "(~(np.abs(e0) < gamma_bar))"),
        ("sim.py", "fires = ~(np.abs(e0) <= gamma_bar)", "fires = ~(np.abs(e0) < gamma_bar)"),
    )),
    # a band with the absolute slack it once had, and the ensemble's Gram with an absolute
    # delta threshold, as checker-gram-without-small-delta puts one in the checker's
    Mutant("band-takes-a-slack", (
        ("constraints.py", "ok = np.abs(cv).max(axis=-1, initial=0.0) <= gamma_bar",
         "ok = np.abs(cv).max(axis=-1, initial=0.0) <= gamma_bar + 1e-8"),
    )),
    Mutant("ensemble-gram-without-small-delta", (
        ("sim.py", "if delta != 0.0:", "if delta >= 1e-6:"),
    )),
    # run_single's own gate letting a non-finite error through to the constraint rule
    Mutant("scalar-gate-takes-non-finite-errors", (
        ("sim.py", "config.gamma_bar < abs(e[0]) < math.inf", "config.gamma_bar < abs(e[0])"),
    )),
    # the ensemble's many-step loop: a quiet run moved one step past its span, so the
    # step after the span is never gated nor recorded; runs going on past the first failure
    Mutant("quiet-lookahead-skips-a-step", (
        ("sim.py", "at += h  #", "at += h + 1  #"),
        ("sim.py", "at[rows] -= q", "at[rows] -= q + 1"),
    )),
    Mutant("runs-go-on-past-the-first-failure", (
        ("sim.py", "(limit := min(K, kfail + 1))", "(limit := K)"),
    )),
    # the KKT route: a singular LU let through to the residual test, and the identity
    # block written one column off (the stacked matrix is in Fortran order)
    Mutant("kkt-ignores-singular-info", (
        ("constrained_ls.py", "if info > 0 or not all_finite(solution):",
         "if not all_finite(solution):"),
    )),
    Mutant("kkt-unit-diagonal-off-by-one", (
        ("constrained_ls.py", 'kkt.ravel("K")[: m * (n + 1) : n + 1] = 1.0',
         'kkt.ravel("K")[n : m * (n + 1) : n + 1] = 1.0'),
    )),
)


def mutate(tree: Path, mutant: Mutant) -> dict[Path, str] | str:
    """Make ``mutant``'s edits in ``tree`` and return each edited file's original text; or,
    writing nothing, say why it does not apply: an edit's old text is not there exactly once."""
    originals, texts = {}, {}
    for name, old, new in mutant.edits:
        path = tree / "src" / "smap" / name
        if path not in originals:
            originals[path] = texts[path] = path.read_text(encoding="utf-8")
        count = texts[path].count(old)
        if count != 1:
            return f"{count} matches in {name}"
        texts[path] = texts[path].replace(old, new)
    for path, text in texts.items():
        path.write_text(text, encoding="utf-8")
    return originals


def failing_tests(tree: Path) -> tuple[list[str], str]:
    """Run the semantic tests in ``tree``; return the ids that fail and pytest's last line."""
    command = [sys.executable, "-m", "pytest", "-q", "--tb=no", "-rfE", "-p", "no:cacheprovider",
               "--continue-on-collection-errors", *(f"--ignore={path}" for path in EXCLUDED)]
    # no bytecode cache: a restored file may match a mutant's size and mtime to the second
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    try:
        child = trees.run(command, timeout=TIMEOUT_S, cwd=tree, env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    except subprocess.TimeoutExpired:
        return ["(the suite timed out)"], f"timed out after {TIMEOUT_S} s"
    lines = child.stdout.splitlines()
    failed = [line.split(" ", 1)[1].split(" - ", 1)[0]
              for line in lines if line.startswith(("FAILED ", "ERROR "))]
    if child.returncode not in (0, 1) and not failed:  # collection or usage error
        failed = [f"(pytest exited {child.returncode})"]
    return failed, lines[-1] if lines else child.stderr.strip()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rev", help="test this revision instead of the working tree")
    args = parser.parse_args()

    with trees.workspace("smap-mutants-") as tree:
        trees.copy_tree(args.rev, tree, ("src", "tests", "pyproject.toml"))
        failed, last = failing_tests(tree)
        print(f"unmutated: {last}", flush=True)
        if failed:
            print("the unmutated copy fails; no mutant can be judged:", *failed, sep="\n    ")
            return 1
        killed, survived, skipped = [], [], []
        for mutant in CATALOGUE:
            originals = mutate(tree, mutant)
            if isinstance(originals, str):
                print(f"{mutant.name}: not applicable ({originals})")
                skipped.append(mutant.name)
                continue
            try:
                failed, last = failing_tests(tree)
            finally:
                for path, original in originals.items():
                    path.write_text(original, encoding="utf-8")
            if failed:
                killed.append(mutant.name)
                print(f"{mutant.name}: killed by {len(failed)} ({last})", *failed,
                      sep="\n    ", flush=True)
            else:
                survived.append(mutant.name)
                print(f"{mutant.name}: SURVIVED ({last})", flush=True)
    print(f"killed {len(killed)} of {len(killed) + len(survived)} applicable mutants"
          + (f"; {len(skipped)} not applicable" if skipped else ""))
    if survived:
        print("survivors: " + ", ".join(survived))
    return 0


if __name__ == "__main__":
    sys.exit(main())
