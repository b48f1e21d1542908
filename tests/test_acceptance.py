"""End-to-end acceptance checks, one per shipped guarantee.

Each test prints a single PASS/FAIL line (visible under `pytest -s` or in
captured output) and then asserts, so the suite doubles as a checklist.
"""

import math
import time

import numpy as np
import pytest

from catsim import audit, gates, measure, metrology, optics, states
from catsim.cli import main as cli_main


def _report(num: int, name: str, ok: bool) -> bool:
    print(f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'}")
    return ok


def test_01_coherent_overlap_decay():
    ok = True
    for alpha in np.linspace(0.5, 3.0, 26):
        value = abs(states.coherent_overlap(alpha, -alpha)) ** 2
        exact = math.exp(-4 * alpha**2)
        ok &= abs(value - exact) <= 1e-12 * exact
    ok &= abs(states.coherent_overlap(2.0, -2.0)) ** 2 < 1e-6
    assert _report(1, "opposite-coherent overlap decay", ok)


def test_02_bell_resource_fidelity():
    res = optics.bell_resource(2.0)
    f = states.fidelity(res, states.bell_cat(2.0, "i"))
    assert _report(2, "entangled resource preparation", f >= 1 - 1e-10)


def test_03_bell_classification_and_fail_decay():
    ok = True
    for kind, name in zip(("i", "ii", "iii", "iv"), ("I", "II", "III", "IV")):
        recs = measure.bell_outcomes(states.bell_cat(2.0, kind), 0, 1)
        ok &= abs(recs[name].probability + recs["FAIL"].probability - 1.0) < 1e-10
    alphas = np.linspace(1.0, 3.0, 11)
    fails = np.array(
        [measure.bell_outcomes(states.bell_cat(a, "i"), 0, 1)["FAIL"].probability
         for a in alphas]
    )
    x, y = alphas**2, np.log(fails)
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    r2 = 1 - np.sum(resid**2) / np.sum((y - np.mean(y)) ** 2)
    ok &= slope < 0 and r2 >= 0.999
    assert _report(3, "measurement classes and failure decay", ok)


def test_04_rz_phase_accuracy():
    ok = True
    for alpha in np.linspace(1.5, 3.0, 7):
        enc = gates.QubitEncoding(float(alpha))
        for ta2 in (0.005, 0.01, 0.02):
            theta = ta2 / alpha**2
            out = gates.gate_rz(gates.encode(1.0, 1.0, enc), enc, theta)
            m, n, _ = gates.decode(out.state, enc)
            ok &= abs(np.angle(n / m) - 4 * theta * alpha**2) < 1e-6
    assert _report(4, "small-angle Z rotation phase", ok)


def test_05_entangling_phase_and_dressed_cnot():
    enc_a, enc_b = gates.QubitEncoding(2.5, 0), gates.QubitEncoding(2.5, 1)
    a2 = enc_a.alpha**2
    steps = 16
    theta = math.pi / (4 * a2) / steps
    # per-step phase against the small-angle target
    two = optics.tensor(
        gates.encode(1, 1, enc_a), gates.encode(1, 1, enc_a)
    ).merge_terms()
    out = gates.entangling_gate(two, enc_a, enc_b, theta)
    x4, _ = gates.decode_two(out.state, enc_a, enc_b)
    phases = np.angle(x4 / x4[0])
    expected = np.array([0.0, -2 * theta * a2, -2 * theta * a2, 0.0])
    ok = float(np.max(np.abs(phases - expected))) < 1e-6

    eye = np.eye(4, dtype=complex)
    inputs = [eye[i] for i in range(4)]
    for i in range(4):
        for j in range(i + 1, 4):
            inputs.append((eye[i] + eye[j]) / np.sqrt(2))
            inputs.append((eye[i] + 1j * eye[j]) / np.sqrt(2))

    def channel(v):
        coeffs, amps = [], []
        for i, c in enumerate(v):
            if c == 0:
                continue
            coeffs.append(c)
            amps.append([
                enc_a.alpha if (i >> 1) & 1 else -enc_a.alpha,
                enc_b.alpha if i & 1 else -enc_b.alpha,
            ])
        state = states.CoherentSuperposition(
            np.array(coeffs), np.array(amps, dtype=complex)
        ).normalize()
        for _ in range(steps):
            state = gates.entangling_gate(state, enc_a, enc_b, theta).state
        x, _ = gates.decode_two(state.normalize(), enc_a, enc_b)
        return x

    vin = np.column_stack(inputs)
    vout = np.column_stack([channel(v) for v in inputs])
    a_map, *_ = np.linalg.lstsq(vin.T, vout.T, rcond=None)
    fid, _ = gates.cnot_dressing(a_map.T)
    ok &= fid >= 0.999
    assert _report(5, "entangling phase and dressed CNOT", ok)


def test_06_weak_force_sensitivity():
    ok = True
    # exact bound at total amplitude alpha: <n> = alpha^2 tanh alpha^2 and
    # qfi = 4 Var(G) = 4 N (1 + 2 alpha^2 + 2 <n>)
    alpha = 4.0
    n_tot = alpha**2 * math.tanh(alpha**2)
    for n in (1, 2, 4, 8, 16):
        rep = metrology.sensitivity_bound(alpha, n)
        qfi = 4 * n * (1 + 2 * alpha**2 + 2 * n_tot)
        ok &= abs(rep.n_tot - n_tot) <= 1e-12 * n_tot
        ok &= abs(rep.qfi - qfi) <= 1e-12 * qfi
    # exact sqrt(N) improvement
    base = metrology.sensitivity_bound(alpha, 1).epsilon_min
    for n in range(1, 17):
        rep = metrology.sensitivity_bound(alpha, n)
        ok &= abs(rep.epsilon_min * math.sqrt(n) / base - 1.0) < 1e-12
    # exact saturation of the Cramer-Rao bound
    eps = math.pi / (8 * 2.0)  # mid-fringe for alpha=2, N=1
    rep = metrology.weak_force_experiment(2.0, 1, eps, trials=10_000)
    ok &= 0.9 <= rep.saturation <= 1
    assert _report(6, "weak-force sensitivity scaling", ok)


def test_07_ramsey_information_ratio():
    ok = True
    theta = 0.3
    for n in range(1, 11):
        fe = metrology.ramsey_fisher(theta, n, entangled=True)
        fp = metrology.ramsey_fisher(theta, n, entangled=False)
        ok &= abs(fe - 4 * n**2) < 1e-6 * 4 * n**2
        ok &= abs(fp - 4 * n) < 1e-6 * 4 * n
        ok &= abs(fe / fp - n) < 1e-6 * n
    assert _report(7, "Ramsey information scaling", ok)


def test_08_ruler_fringe_spacing():
    ok = True
    lam = 10e-6
    for alpha in (4.0, 6.0, 8.0, 10.0):
        scan = metrology.quantum_ruler(alpha, lam)
        ideal = lam / (2 * alpha)
        ok &= abs(scan.spacing_length - ideal) <= 0.01 * ideal
    spacing_um = metrology.quantum_ruler(10.0, 10e-6).spacing_length * 1e6
    ok &= 0.4 <= spacing_um <= 1.5
    assert _report(8, "ruler fringe spacing", ok)


def test_09_oracle_equivalence():
    start = time.monotonic()
    rows = audit.run_audit(20240817, cases_per_check=20, alpha_max=3.0, modes_max=3)
    elapsed = time.monotonic() - start
    total_cases = sum(r.cases for r in rows)
    ok = total_cases >= 200 and all(r.passed for r in rows) and elapsed < 120
    assert _report(9, "independent-oracle equivalence", ok)


def test_10_cli_reproducibility(tmp_path):
    out_a, out_b = tmp_path / "a.tsv", tmp_path / "b.tsv"
    args = ["bell-stats", "--seed", "11", "--trials", "500", "--alpha-steps", "2"]
    code_a = cli_main(args + ["--output", str(out_a)])
    code_b = cli_main(args + ["--output", str(out_b)])
    ok = code_a == 0 and code_b == 0 and out_a.read_bytes() == out_b.read_bytes()
    # a different seed changes the sampled columns
    out_c = tmp_path / "c.tsv"
    ok &= cli_main(args[:2] + ["12"] + args[3:] + ["--output", str(out_c)]) == 0
    ok &= out_a.read_bytes() != out_c.read_bytes()
    assert _report(10, "seeded CLI reproducibility", ok)
