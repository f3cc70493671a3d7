import csv
import json
import math

import numpy as np
import pytest

from cmvkit import caratheodory, coeffs, operator, spectral, table, transfer, verify


def _per_row(path, header, rows):
    """One row at a time through csv.writer, each float cell its repr:
    the reference for the block writer."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _wide_complex(rng, n):
    """Complex values with moduli spanning e^-150 ... e^150."""
    return np.exp(rng.uniform(-150.0, 150.0, n)) * np.exp(2j * math.pi * rng.uniform(0.0, 1.0, n))


def _coeffs(rng, path, lo=-700, hi=600):
    right = coeffs.make_explicit(0.9 * _wide_complex(rng, 1000) / np.exp(150.0))
    seq = coeffs.extend_two_sided(right, coeffs.make_explicit(rng.uniform(-0.9, 0.9, 1000)))
    coeffs.write_coeffs_csv(seq, lo, hi, path)
    a = seq.alpha_array(lo, hi)
    return (["n", "re_alpha", "im_alpha", "rho"],
            [[n, repr(x.real), repr(x.imag), repr(r)]
             for n, x, r in zip(range(lo, hi), a.tolist(), coeffs.rho_of(a).tolist())])


def _state(rng, path):
    # |v|^2 of 1e-160 + 1e-161j is subnormal, and exact zeros stay in; at
    # the three real values, one of them below 1 as on a walk, a float's
    # ** 2 (C pow) is a last place off the IEEE product |v| * |v|
    special = [3435976389472.5913, 8661204618384931.0, 0.15459072313032074]
    assert all(a ** 2 != a * a for a in special)
    values = np.concatenate([_wide_complex(rng, 1500), [1e-160 + 1e-161j, 0.0, -0.0j], special])
    state = operator.State(-777, values)
    operator.write_state_csv(state, path)
    return (["n", "re", "im", "abs2"],
            [[state.offset + i, repr(float(v.real)), repr(float(v.imag)), repr(abs(v) * abs(v))]
             for i, v in enumerate(state.values.tolist())])


def _bands(rng, path):
    # alpha = 0 at every third site puts exact zeros on the band, which are dropped
    alpha = rng.uniform(0.0, 0.9, 400) * np.exp(2j * math.pi * rng.uniform(0.0, 1.0, 400))
    alpha[::3] = 0.0
    block = operator.build_finite_cmv(coeffs.make_explicit(alpha), 401)
    operator.write_bands_csv(block, path)
    dense = block.dense()
    rows, cols = np.nonzero(dense)
    assert len(rows) < 5 * len(dense) - 6
    return (["row", "col", "re", "im"],
            [[i, j, repr(v.real), repr(v.imag)]
             for i, j, v in zip(rows.tolist(), cols.tolist(), dense[rows, cols].tolist())])


def _boundary(rng, path):
    F = _wide_complex(rng, 600).tolist()
    rows = [(r, 0.25, f, x, ratio, sup) for r, f, x, ratio, sup in
            zip(rng.uniform(0.9, 1.0, 600).tolist(), F, rng.uniform(1.0, 1e6, 600).tolist(),
                [math.inf, math.nan] + rng.uniform(0.1, 10.0, 598).tolist(),
                rng.standard_normal(600).tolist())]
    caratheodory.write_boundary_csv(rows, path)
    return (["r", "theta", "re_F", "im_F", "x_of_r", "jl_ratio", "mobius_sup"],
            [[repr(float(r)), repr(float(theta)), repr(float(F.real)), repr(float(F.imag)),
              repr(float(x)), repr(float(ratio)), repr(float(sup))]
             for r, theta, F, x, ratio, sup in rows])


def _arcmass(rng, path):
    eps, masses = np.exp(rng.uniform(-12.0, 0.0, 700)), np.exp(rng.uniform(-300.0, 0.0, 700))
    fit = spectral.HolderFit(0.9, 0.8, eps, masses, 1e-9)
    spectral.write_arcmass_csv(fit, path)
    return (["eps", "arc_mass", "log_eps", "log_mass"],
            [[repr(float(e)), repr(float(m)), repr(math.log(e)), repr(math.log(m))]
             for e, m in zip(fit.eps, fit.masses)])


def _norm(rng, path):
    samples = list(zip(range(1, 1201), np.exp(rng.uniform(0.0, 300.0, 1200)).tolist()))
    transfer.write_norm_csv(samples, path)
    return (["L", "norm", "log_L", "log_norm"],
            [[repr(float(L)), repr(float(v)), repr(math.log(L)), repr(math.log(v))]
             for L, v in samples])


@pytest.mark.parametrize("case", [
    _coeffs,
    lambda rng, path: _coeffs(rng, path, 5, 5),  # a header-only table
    _state, _bands, _boundary, _arcmass, _norm,
], ids=["coeffs", "coeffs-empty", "state", "bands", "boundary", "arcmass", "norm"])
def test_writer_matches_per_row_writer(tmp_path, case):
    header, rows = case(np.random.default_rng(5), tmp_path / "table.csv")
    _per_row(tmp_path / "rows.csv", header, rows)
    data = (tmp_path / "table.csv").read_bytes()
    assert data == (tmp_path / "rows.csv").read_bytes()
    assert data.count(b"\r\n") == len(rows) + 1
    assert len(rows) <= 1 or len(rows) > table._BLOCK


def _numpy_record():
    # numpy scalars inside nested dicts, lists and tuples, as criterion 11
    # nests its per-theta records; float32 and int64 are no Python
    # float or int, so they reach the writer's hook
    return {"gamma": np.float64(0.1), "depth": np.int64(1 << 40), "ok": np.bool_(True),
            "rows": [{"theta": np.float32(0.1), "steps": np.int32(-3), "passed": np.bool_(False)},
                     (np.float64(-math.inf), np.uint8(7))],
            "note": "text", "empty": [], "none": None}


def _item_record(value):
    """The record with each numpy scalar replaced by its `.item()`."""
    if isinstance(value, dict):
        return {k: _item_record(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_item_record(v) for v in value]
    return value.item() if isinstance(value, np.generic) else value


def test_json_writer_writes_numpy_scalars_as_python_values(tmp_path):
    record = _numpy_record()
    table.write_json(tmp_path / "record.json", record)
    want = json.dumps(_item_record(record), indent=2)
    assert (tmp_path / "record.json").read_bytes() == want.encode("utf-8")
    assert json.loads(want)["rows"][0] == {"theta": 0.10000000149011612, "steps": -3,
                                           "passed": False}


def test_json_writer_writes_complex_as_text_and_rejects_other_objects(tmp_path):
    table.write_json(tmp_path / "config.json", {"value": 0.3 + 0.2j, "alphabet": [0.5 - 1j]})
    assert json.loads((tmp_path / "config.json").read_text(encoding="utf-8")) == {
        "value": "(0.3+0.2j)", "alphabet": ["(0.5-1j)"]}
    for bad in (object(), {1, 2}, np.zeros(2)):
        with pytest.raises(TypeError):
            table.write_json(tmp_path / "bad.json", {"value": bad})


def test_verification_report_writes_numpy_scalars_as_their_items(tmp_path):
    def result(measured):
        return verify.CriterionResult(11, "name", np.bool_(True), "soft", "details",
                                      measured, wall_s=0.25)

    measured = _numpy_record()
    verify.report_to_json([result(measured)], tmp_path / "numpy.json")
    verify.report_to_json([result(_item_record(measured))], tmp_path / "items.json")
    assert (tmp_path / "numpy.json").read_bytes() == (tmp_path / "items.json").read_bytes()
