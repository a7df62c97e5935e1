from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from waring import montecarlo
from waring.cli import main

FIXTURES = Path(__file__).parent / "fixtures"
SRC = Path(__file__).parent.parent / "src"

TABLE_GENERIC = """\
generic symmetric rank (k down, n across; * marks exceptional pairs)
k  2   3    4    5   6    7    8    9   10
3  2   4    5   8*  10   12   15   19   22
4  3  6*  10*  15*  21   30   42   55   72
5  3   7   14   26  42   66   99  143  201
6  4  10   21   42  77  132  215  334  501
"""

BORDER_RANK2TO3 = """\
kind rank2_to_3 order 3
    epsilon    distance
      0.125        0.25
     0.0625       0.125
    0.03125      0.0625
   0.015625     0.03125
  0.0078125    0.015625
 0.00390625   0.0078125
 0.00195312  0.00390625
0.000976562  0.00195312
log-log slope 1.0000
"""


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_dim(capsys):
    code, out, err = run(capsys, "dim", "--order", "3", "--dim", "3")
    assert (code, out, err) == (0, "10\n", "")


def test_rank_json(capsys):
    code, out, _ = run(capsys, "rank", "--order", "4", "--dim", "3")
    assert code == 0
    assert '"generic_rank":6,"is_exception":true' in out
    parsed = json.loads(out)
    assert parsed["lower_bound"] == 5
    assert parsed["upper_bound"] == 10
    assert parsed["fiber_dim"] == 3
    assert parsed["finitely_many_decompositions"] is None


def test_rank_validation_exit_2(capsys):
    code, _, err = run(capsys, "rank", "--order", "2", "--dim", "3")
    assert code == 2
    assert "error:" in err


def test_table_generic_text(capsys):
    code, out, _ = run(capsys, "table", "--what", "generic")
    assert code == 0
    assert out == TABLE_GENERIC


def test_table_fiber_csv(capsys):
    code, out, _ = run(capsys, "table", "--what", "fiber", "--csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "k,n,value,is_exception"
    assert len(lines) == 37
    assert "4,3,3,true" in lines
    assert "3,2,0,false" in lines


def test_symmetrize_dense_to_sym(capsys, tmp_path):
    out_path = tmp_path / "s.json"
    code, out, _ = run(
        capsys, "symmetrize",
        "--in", str(FIXTURES / "dense_asym222.json"),
        "--out", str(out_path),
    )
    assert code == 0 and out == ""
    obj = json.loads(out_path.read_text())
    assert obj["format"] == "sym"
    values = {tuple(c["exponent"]): c["value"][0] for c in obj["coeffs"]}
    # arange(8): class averages 0, (1+2+4)/3, (3+5+6)/3, 7; the zero is pruned
    assert (3, 0) not in values
    assert values[(2, 1)] == pytest.approx(7.0 / 3.0)
    assert values[(1, 2)] == pytest.approx(14.0 / 3.0)
    assert values[(0, 3)] == pytest.approx(7.0)


def test_symmetrize_stdout_default(capsys):
    code, out, _ = run(capsys, "symmetrize", "--in", str(FIXTURES / "a31_tensor.json"))
    assert code == 0
    assert json.loads(out)["format"] == "sym"


def test_to_poly(capsys):
    code, out, _ = run(capsys, "to-poly", "--in", str(FIXTURES / "cubic_3xyy_minus_xxx.json"))
    assert (code, out) == (0, "3*x1*x2^2 - x1^3\n")
    code, out, _ = run(capsys, "to-poly", "--in", str(FIXTURES / "a31_tensor.json"))
    assert (code, out) == (0, "48*x1^3*x2\n")


def test_from_poly_round_trip(capsys, tmp_path):
    poly = tmp_path / "p.txt"
    poly.write_text("-1*x1^3 + 3*x1*x2^2\n")
    tensor_path = tmp_path / "t.json"
    code, _, _ = run(capsys, "from-poly", "--in", str(poly), "--out", str(tensor_path))
    assert code == 0
    assert json.loads(tensor_path.read_text()) == json.loads(
        (FIXTURES / "cubic_3xyy_minus_xxx.json").read_text()
    )
    code, out, _ = run(capsys, "to-poly", "--in", str(tensor_path))
    assert out == "3*x1*x2^2 - x1^3\n"


def test_decompose_pencil_then_verify_round_trip(capsys, tmp_path):
    decomp = tmp_path / "d.json"
    code, out, _ = run(
        capsys, "decompose",
        "--in", str(FIXTURES / "cubic_3xyy_minus_xxx.json"),
        "--method", "pencil", "--field", "R",
        "--out", str(decomp),
    )
    assert code == 0
    assert out == "classification real_rank_3 terms 3\n"
    code, out, _ = run(
        capsys, "verify",
        "--tensor", str(FIXTURES / "cubic_3xyy_minus_xxx.json"),
        "--decomp", str(decomp),
    )
    assert code == 0
    report = json.loads(out)
    assert report["ok"] is True and report["stated_rank"] == 3


def test_decompose_complex_field(capsys, tmp_path):
    decomp = tmp_path / "d.json"
    code, _, _ = run(
        capsys, "decompose",
        "--in", str(FIXTURES / "cubic_3xyy_minus_xxx.json"),
        "--method", "pencil", "--field", "C",
        "--out", str(decomp),
    )
    assert code == 0
    obj = json.loads(decomp.read_text())
    assert obj["field"] == "C" and len(obj["terms"]) == 2
    code, _, _ = run(
        capsys, "verify",
        "--tensor", str(FIXTURES / "cubic_3xyy_minus_xxx.json"),
        "--decomp", str(decomp),
    )
    assert code == 0


def test_decompose_monomial(capsys, tmp_path):
    tensor = tmp_path / "m.json"
    tensor.write_text(json.dumps({
        "format": "sym", "order": 4, "dim": 2,
        "coeffs": [{"exponent": [1, 3], "value": [0.25, 0.0]}],
    }))
    decomp = tmp_path / "d.json"
    code, _, _ = run(
        capsys, "decompose", "--in", str(tensor),
        "--method", "monomial", "--out", str(decomp),
    )
    assert code == 0
    assert len(json.loads(decomp.read_text())["terms"]) == 4
    assert run(capsys, "verify", "--tensor", str(tensor), "--decomp", str(decomp))[0] == 0


def test_decompose_monomial_rejects_general_input(capsys):
    code, _, err = run(
        capsys, "decompose",
        "--in", str(FIXTURES / "cubic_3xyy_minus_xxx.json"),
        "--method", "monomial",
    )
    assert code == 2
    assert "z1*z2^(k-1)" in err


def test_decompose_degenerate_pencil_exit_1(capsys, tmp_path):
    tensor = tmp_path / "cube.json"
    tensor.write_text(json.dumps({
        "format": "sym", "order": 3, "dim": 2,
        "coeffs": [{"exponent": [3, 0], "value": [1.0, 0.0]}],
    }))
    code, _, err = run(capsys, "decompose", "--in", str(tensor), "--method", "pencil")
    assert code == 1
    assert "degenerate pencil" in err


def test_decompose_rejects_non_finite_entries_exit_2(capsys, tmp_path):
    tensor = tmp_path / "nan.json"
    tensor.write_text(
        '{"format": "sym", "order": 3, "dim": 2, "coeffs": ['
        '{"exponent": [3, 0], "value": [NaN, 0.0]}, {"exponent": [0, 3], "value": [1.0, 0.0]}]}'
    )
    code, out, err = run(capsys, "decompose", "--in", str(tensor), "--method", "pencil")
    assert (code, out) == (2, "")
    assert err.startswith("error:")


def test_from_poly_rejects_nan_exit_2(capsys, tmp_path):
    poly = tmp_path / "nan.txt"
    poly.write_text("nan*x1^3\n")
    code, out, err = run(capsys, "from-poly", "--in", str(poly))
    assert (code, out) == (2, "")
    assert err.startswith("error:")


def test_verify_fixture_pair_exact(capsys):
    code, out, _ = run(
        capsys, "verify",
        "--tensor", str(FIXTURES / "a31_tensor.json"),
        "--decomp", str(FIXTURES / "a31_decomposition.json"),
    )
    assert code == 0
    assert json.loads(out) == {"residual": 0.0, "ok": True, "stated_rank": 4}


def strict_json(text):
    def reject(constant):
        raise ValueError(f"not JSON: {constant}")

    return json.loads(text, parse_constant=reject)


def write_cubic(path, value):
    """A sym JSON holding value * x1^3."""
    path.write_text(json.dumps({
        "format": "sym", "order": 3, "dim": 2,
        "coeffs": [{"exponent": [3, 0], "value": [value, 0.0]}],
    }))
    return str(path)


def write_decomposition(path, weight, vector):
    path.write_text(json.dumps({
        "order": 3, "dim": 2, "field": "R",
        "terms": [{"weight": [weight, 0.0], "vector": [[c, 0.0] for c in vector]}],
    }))
    return str(path)


def test_verify_overflowing_residual_is_null_and_exit_1(capsys, tmp_path):
    # 1.5e308 - (-1.5e308) overflows, so the residual is infinite
    tensor = write_cubic(tmp_path / "t.json", 1.5e308)
    decomp = write_decomposition(tmp_path / "d.json", -1.5e308, [1.0, 0.0])
    code, out, err = run(capsys, "verify", "--tensor", tensor, "--decomp", decomp)
    assert (code, err) == (1, "")
    assert strict_json(out) == {"residual": None, "ok": False, "stated_rank": 1}


@pytest.mark.parametrize("weight, ok", [(1e308, False), (-1.5e308, False), (None, True)])
def test_verify_when_the_tensor_norm_overflows(capsys, tmp_path, weight, ok):
    # ||A|| = 2.1e308 overflows; the residuals are 1.58e308, inf and 0 (the exact pair)
    tensor = tmp_path / "t.json"
    tensor.write_text(json.dumps({
        "format": "sym", "order": 3, "dim": 2,
        "coeffs": [{"exponent": p, "value": [1.5e308, 0.0]} for p in ([3, 0], [0, 3])],
    }))
    decomp = tmp_path / "d.json"
    if weight is None:
        decomp.write_text(json.dumps({
            "order": 3, "dim": 2, "field": "R",
            "terms": [{"weight": [1.5e308, 0.0], "vector": v} for v in ([[1, 0], [0, 0]], [[0, 0], [1, 0]])],
        }))
    else:
        write_decomposition(decomp, weight, [1.0, 0.0])
    code, out, err = run(capsys, "verify", "--tensor", str(tensor), "--decomp", str(decomp))
    assert (code, err, strict_json(out)["ok"]) == (0 if ok else 1, "", ok)


@pytest.mark.parametrize("weight, vector", [(1.0, [1e200, 0.0]), (1e300, [1e3, 0.0])])
def test_verify_rejects_a_term_that_overflows_when_normalized_exit_2(capsys, tmp_path, weight, vector):
    tensor = write_cubic(tmp_path / "t.json", 1.0)
    decomp = write_decomposition(tmp_path / "d.json", weight, vector)
    code, out, err = run(capsys, "verify", "--tensor", tensor, "--decomp", decomp)
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "terms must be finite" in err


def test_verify_overflowing_outer_power_writes_one_error_line(tmp_path):
    # a separate process, because numpy reports overflow through the warnings module
    tensor = write_cubic(tmp_path / "t.json", 1.0)
    decomp = write_decomposition(tmp_path / "d.json", 1.0, [1.0, 1e200])
    path = [str(SRC), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.run(
        [sys.executable, "-m", "waring.cli", "verify", "--tensor", tensor, "--decomp", decomp],
        capture_output=True, text=True, env=env,
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1


def test_verify_failure_exit_1(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "order": 4, "dim": 2, "field": "R",
        "terms": [{"weight": [1.0, 0.0], "vector": [[1.0, 0.0], [1.0, 0.0]]}],
    }))
    code, out, _ = run(
        capsys, "verify",
        "--tensor", str(FIXTURES / "a31_tensor.json"),
        "--decomp", str(bad),
    )
    assert code == 1
    assert json.loads(out)["ok"] is False


def test_demo_border_text(capsys):
    code, out, _ = run(capsys, "demo-border", "--kind", "rank2to3")
    assert code == 0
    assert out == BORDER_RANK2TO3


def test_demo_border_csv_and_order(capsys):
    code, out, _ = run(
        capsys, "demo-border", "--kind", "rank2tok", "--order", "5", "--csv"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "epsilon,distance"
    assert len(lines) == 9
    first_eps, first_dist = lines[1].split(",")
    assert float(first_eps) == 0.125
    assert float(first_dist) > 0


def test_demo_border_rejects_order_for_fixed_kinds(capsys):
    code, _, err = run(capsys, "demo-border", "--kind", "tangent", "--order", "4")
    assert code == 2 and "order-3" in err


def test_montecarlo_csv_golden(capsys):
    code, out, _ = run(
        capsys, "montecarlo", "--case", "sym222",
        "--samples", "10000", "--seed", "42", "--csv",
    )
    assert code == 0
    assert out.splitlines()[1] == "sym222,10000,42,5142,4858,0,0.5142,0.00499798319325"


def test_montecarlo_text_and_workers(capsys):
    code, out, _ = run(
        capsys, "montecarlo", "--case", "asym222",
        "--samples", "10000", "--seed", "42", "--workers", "4",
    )
    assert code == 0
    assert "rank2 7858 rank3 2142 degenerate 0" in out
    assert "fraction 0.785800" in out


@pytest.mark.skipif(montecarlo._usable_cpus() < 2, reason="needs two usable CPUs")
def test_montecarlo_worker_failure_exits_1_with_one_error_line(capsys, monkeypatch):
    def failing_in_a_worker(case, seed, lo, hi):
        if lo > 0:
            raise MemoryError("injected")
        return np.zeros(3, dtype=np.int64)

    monkeypatch.setattr(montecarlo, "_run_block", failing_in_a_worker)
    samples = str(2 * montecarlo.MIN_WORKER_TRIALS)
    code, out, err = run(capsys, "montecarlo", "--case", "sym222", "--samples", samples, "--seed", "1", "--workers", "2")
    assert (code, out) == (1, "")
    assert err.startswith("error:") and err.count("\n") == 1 and "MemoryError: injected" in err


def test_malformed_json_names_position(capsys, tmp_path):
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    code, _, err = run(capsys, "to-poly", "--in", str(broken))
    assert code == 2
    assert "malformed JSON" in err


def test_schema_error_names_field(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"format": "sym", "coeffs": []}))
    code, _, err = run(capsys, "to-poly", "--in", str(bad))
    assert code == 2
    assert "field" in err


def test_missing_file_exit_2(capsys, tmp_path):
    code, _, err = run(capsys, "to-poly", "--in", str(tmp_path / "absent.json"))
    assert code == 2
    assert err.startswith("error:")


def test_flag_errors_exit_2(capsys):
    assert run(capsys, "dim", "--order", "0", "--dim", "2")[0] == 2
    assert run(capsys, "dim", "--order", "3")[0] == 2
    assert run(capsys, "table", "--what", "everything")[0] == 2
    assert run(capsys)[0] == 2


def test_help_exits_0(capsys):
    assert run(capsys, "--help")[0] == 0
    assert run(capsys, "decompose", "--help")[0] == 0


def test_asymmetric_input_to_to_poly_exit_2(capsys):
    code, _, err = run(capsys, "to-poly", "--in", str(FIXTURES / "dense_asym222.json"))
    assert code == 2
    assert "symmet" in err.lower()


@pytest.mark.parametrize(
    "text", ["x1^70", "x1^35*x2^35", "x1^1000000*x2", "-2*x7^2 + x1*x300", "x1^1000000000000", "x1000000"]
)
def test_poly_round_trip_for_high_orders_and_wide_forms(capsys, tmp_path, text):
    # class sizes past the int64 range (C(70, 35)), a million-and-one classes, a
    # 300-variable quadratic, a single variable of order 10^12 and a linear form
    # over C^(10^6): none needs an exponent table to pass through
    poly = tmp_path / "form.txt"
    poly.write_text(text + "\n")
    sym = tmp_path / "form.json"
    assert run(capsys, "from-poly", "--in", str(poly), "--out", str(sym))[0] == 0
    assert run(capsys, "to-poly", "--in", str(sym)) == (0, text + "\n", "")


def _sym_json(order, dim, coeffs=()):
    return {"format": "sym", "order": order, "dim": dim, "coeffs": list(coeffs)}


def _dense_json(order, dim, entries):
    return {"format": "dense", "order": order, "dim": dim, "entries": entries}


_ONE = {"exponent": [100], "value": [1, 0]}


@pytest.mark.parametrize(
    "command, content",
    [
        pytest.param("from-poly", "x1^" + "9" * 5000, id="exponent-past-int-digit-limit"),
        pytest.param("dim --order 20000 --dim 20000", None, id="dim-binomial-of-12000-digits"),
        pytest.param("rank --order 20000 --dim 20000", None, id="rank-binomial-of-12000-digits"),
        pytest.param("to-poly", json.dumps(_sym_json(20000, 20000)), id="sym-binomial-of-12000-digits"),
        pytest.param("to-poly", json.dumps(_dense_json(5000, 10, [])), id="dense-order-5000"),
        pytest.param("to-poly", json.dumps(_dense_json(100, 1, [[1, 0]])), id="dense-order-100"),
        pytest.param("symmetrize", json.dumps(_sym_json(100, 1, [_ONE])), id="symmetrize-sym-order-100"),
        pytest.param("to-poly", json.dumps(_sym_json(True, 1)), id="boolean-order"),
        pytest.param(
            "to-poly",
            json.dumps({"format": "sym", "coeffs": [{"exponent": [True, 0], "value": [1, 0]}]}),
            id="boolean-exponent",
        ),
        pytest.param("to-poly", '{"format": "sym", "order": ' + "9" * 5000 + "}", id="json-int-digit-limit"),
        pytest.param(
            "to-poly",
            json.dumps(_dense_json(3, 2, [[v, 0] for v in (0, 1.5e308, -1.5e308, 0, 1.5e308, 0, 0, 0)])),
            id="dense-asymmetry-past-the-float-range",
        ),
        pytest.param(
            "to-poly",
            json.dumps(_dense_json(3, 2, [[1.5e308, 1.5e308], [1e300, 0], [-1e300, 0], [0, 0], [1e300, 0]] + [[0, 0]] * 3)),
            id="dense-asymmetry-of-moduli-past-the-float-range",
        ),
    ],
)
def test_inputs_past_the_bounds_exit_2_with_one_error_line(capsys, tmp_path, command, content):
    argv = command.split()
    if content is not None:
        path = tmp_path / "input"
        path.write_text(content)
        argv += ["--in", str(path)]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error:") and err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize(
    "command, content",
    [
        pytest.param("from-poly", "[" * 100_000, id="brackets"),
        pytest.param("from-poly", "2*x1*" + "y" * 100_000, id="long-factor"),
        pytest.param("to-poly", json.dumps(_sym_json(2, 2800, [{"exponent": [1, 1, 1] + [0] * 2797, "value": [1, 0]}])),
                     id="wide-exponent-of-degree-3"),
    ],
)
def test_an_error_line_quotes_a_long_input_in_part(capsys, tmp_path, command, content):
    path = tmp_path / "input"
    path.write_text(content)
    code, out, err = run(capsys, command, "--in", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error:") and err.count("\n") == 1 and len(err.encode()) < 200 and "..." in err


def test_verify_of_a_single_variable_past_the_table_cap_exits_2_with_one_error_line(capsys, tmp_path):
    # order 10^12 over C^1 stores one class, but its reconstruction takes 10^12 + 1 powers
    tensor, decomp = tmp_path / "t.json", tmp_path / "d.json"
    tensor.write_text(json.dumps(_sym_json(10**12, 1, [{"exponent": [10**12], "value": [1, 0]}])))
    decomp.write_text(json.dumps({
        "order": 10**12, "dim": 1, "field": "R", "terms": [{"weight": [1, 0], "vector": [[1, 0]]}],
    }))
    code, out, err = run(capsys, "verify", "--tensor", str(tensor), "--decomp", str(decomp))
    assert (code, out) == (2, "")
    assert err.startswith("error:") and err.count("\n") == 1 and "table entries" in err


_FLOAT_FLAG_COMMANDS = {
    "--tol": (
        "verify", "--tensor", str(FIXTURES / "a31_tensor.json"), "--decomp", str(FIXTURES / "a31_decomposition.json")
    ),
    "--epsilon": ("demo-border", "--kind", "rank2to3"),
}


@pytest.mark.parametrize("flag", sorted(_FLOAT_FLAG_COMMANDS))
@pytest.mark.parametrize("value", ["0", "-1", "nan", "inf", "abc", "1e-6"])
def test_float_flags_take_only_positive_numbers(capsys, flag, value):
    code, _, err = run(capsys, *_FLOAT_FLAG_COMMANDS[flag], flag, value)
    if value == "1e-6":
        assert (code, err) == (0, "")
    else:
        assert code == 2 and f"argument {flag}: expected a" in err


_MONOMIAL = {"exponent": [1, 3], "value": [0.25, 0.0]}


@pytest.mark.parametrize(
    "tensor, field, message",
    [
        (_sym_json(3, 3), "C", "dim 2"),
        (_sym_json(1, 2, [{"exponent": [0, 1], "value": [1, 0]}]), "C", "order >= 2"),
        (_sym_json(4, 2, [_MONOMIAL]), "R", "pass --field C"),
        (_sym_json(1030, 2, [{"exponent": [1, 1029], "value": [1, 0]}]), "C", "order 1030 over C^2 exceeds the float"),
    ],
)
def test_decompose_monomial_rejects_what_it_cannot_decompose_exit_2(capsys, tmp_path, tensor, field, message):
    path = tmp_path / "t.json"
    path.write_text(json.dumps(tensor))
    code, out, err = run(capsys, "decompose", "--in", str(path), "--method", "monomial", "--field", field)
    assert (code, out) == (2, "")
    assert err.startswith("error:") and err.count("\n") == 1 and message in err


@pytest.mark.parametrize("k", [60, 200])
def test_decompose_monomial_at_high_order_verifies(capsys, tmp_path, k):
    # from-poly, decompose --method monomial and verify on x1*x2^(k-1)
    poly, tensor, decomp = tmp_path / "p.txt", tmp_path / "t.json", tmp_path / "d.json"
    poly.write_text(f"x1*x2^{k - 1}\n")
    assert run(capsys, "from-poly", "--in", str(poly), "--out", str(tensor))[0] == 0
    code, out, err = run(capsys, "decompose", "--in", str(tensor), "--method", "monomial", "--out", str(decomp))
    assert (code, err) == (0, "") and len(json.loads(decomp.read_text())["terms"]) == k
    code, out, _ = run(capsys, "verify", "--tensor", str(tensor), "--decomp", str(decomp))
    assert code == 0 and json.loads(out)["ok"] is True


@pytest.mark.parametrize("k", [496, 700])
def test_decompose_monomial_refuses_what_verify_would_refuse_exit_1(capsys, tmp_path, k):
    # the rounding of the k terms passes verify's bound at these orders: one error line, nothing on stdout
    poly, tensor = tmp_path / "p.txt", tmp_path / "t.json"
    poly.write_text(f"x1*x2^{k - 1}\n")
    assert run(capsys, "from-poly", "--in", str(poly), "--out", str(tensor))[0] == 0
    code, out, err = run(capsys, "decompose", "--in", str(tensor), "--method", "monomial")
    assert (code, out) == (1, "") and err.count("\n") == 1
    assert err.startswith(f"error: monomial decomposition of order {k} does not verify: residual ")


@pytest.mark.parametrize("field", ["C", "R"])
def test_decompose_pencil_refuses_what_verify_would_refuse_exit_1(capsys, tmp_path, field):
    # (x1 + 0.3 x2)^3 + (x1 + 0.300001 x2)^3: near the double eigenvalue the two terms miss the tensor by 9e-6
    poly, tensor = tmp_path / "p.txt", tmp_path / "t.json"
    poly.write_text("2*x1^3 + 1.800003*x1^2*x2 + 0.54000180000300002*x1*x2^2 + 0.054000270000899991*x2^3\n")
    assert run(capsys, "from-poly", "--in", str(poly), "--out", str(tensor))[0] == 0
    code, out, err = run(capsys, "decompose", "--in", str(tensor), "--method", "pencil", "--field", field)
    assert (code, out) == (1, "") and err.count("\n") == 1
    assert err.startswith("error: rank_2 decomposition of order 3 does not verify: residual ")


@pytest.mark.parametrize("weight, code", [(2.0, 1), (1.0, 0)])
def test_verify_at_order_1024_exits_by_the_residual(capsys, tmp_path, weight, code):
    # (x1 + x2)^1024: its class sizes sum to 2^1024, its norm is 2^512
    tensor, decomp = tmp_path / "t.json", tmp_path / "d.json"
    ones = [{"exponent": [1024 - j, j], "value": [1, 0]} for j in range(1025)]
    tensor.write_text(json.dumps(_sym_json(1024, 2, ones)))
    decomp.write_text(json.dumps({"order": 1024, "dim": 2, "field": "R",
                                  "terms": [{"weight": [weight, 0], "vector": [[1, 0], [1, 0]]}]}))
    got, out, err = run(capsys, "verify", "--tensor", str(tensor), "--decomp", str(decomp))
    assert (got, err) == (code, "")
    assert strict_json(out) == {"residual": (weight - 1) * 2.0**512, "ok": code == 0, "stated_rank": 1}


def test_decompose_over_r_refuses_a_small_tensor_with_a_larger_imaginary_part_exit_2(capsys, tmp_path):
    path = tmp_path / "t.json"
    path.write_text(json.dumps(_sym_json(3, 2, [
        {"exponent": p, "value": v}
        for p, v in [([3, 0], [1e-20, 1e-13]), ([2, 1], [2e-20, 0]), ([1, 2], [3e-20, 0]), ([0, 3], [0.5e-20, 0])]
    ])))
    code, out, err = run(capsys, "decompose", "--in", str(path), "--method", "pencil", "--field", "R")
    assert (code, out) == (2, "")
    assert err == "error: field R needs a real tensor\n"


_PAST_THE_RANGE = {"exponent": [1, 2], "value": [1.7e308, 1.7e308]}  # modulus 2.4e308, past the float range


def test_decompose_pencil_of_an_entry_past_the_float_range_in_modulus_exit_1(capsys, tmp_path):
    path = tmp_path / "t.json"
    path.write_text(json.dumps(_sym_json(3, 2, [_PAST_THE_RANGE, {"exponent": [3, 0], "value": [1, 0]}])))
    code, out, err = run(capsys, "decompose", "--in", str(path), "--method", "pencil")
    assert (code, out, err) == (1, "", "error: degenerate pencil: double eigenvalue\n")


def test_decompose_monomial_of_an_entry_past_the_float_range_in_modulus_verifies(capsys, tmp_path):
    tensor, decomp = tmp_path / "t.json", tmp_path / "d.json"
    tensor.write_text(json.dumps(_sym_json(3, 2, [_PAST_THE_RANGE])))
    code, _, err = run(capsys, "decompose", "--in", str(tensor), "--method", "monomial", "--out", str(decomp))
    assert (code, err) == (0, "")
    assert len(json.loads(decomp.read_text())["terms"]) == 3
    code, out, _ = run(capsys, "verify", "--tensor", str(tensor), "--decomp", str(decomp))
    assert code == 0 and json.loads(out)["ok"] is True


def test_to_poly_refuses_a_coefficient_that_would_print_as_inf(capsys, tmp_path):
    # multinomial(1, 1) * 1e308 overflows: printing inf would give text that from-poly rejects
    path = tmp_path / "t.json"
    coeffs = [{"exponent": [1, 1], "value": [1e308, 0]}, {"exponent": [2, 0], "value": [1, 0]}]
    path.write_text(json.dumps(_sym_json(2, 2, coeffs)))
    code, out, err = run(capsys, "to-poly", "--in", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error:") and err.count("\n") == 1 and "x1*x2" in err


def test_symmetrize_of_a_class_sum_past_the_float_range_exits_0(capsys, tmp_path):
    path = tmp_path / "t.json"
    path.write_text(json.dumps(_dense_json(3, 2, [[1.5e308, 0]] * 8)))
    code, out, err = run(capsys, "symmetrize", "--in", str(path))
    assert (code, err) == (0, "")
    assert [c["value"] for c in json.loads(out)["coeffs"]] == [[1.5e308, 0.0]] * 4


def test_symmetrize_has_no_tol_flag(capsys):
    code, out, err = run(capsys, "symmetrize", "--in", str(FIXTURES / "a31_tensor.json"), "--tol", "1e-3")
    assert (code, out) == (2, "")
    assert "unrecognized arguments: --tol" in err


def test_demo_border_steps_counts_epsilons(capsys):
    code, out, _ = run(capsys, "demo-border", "--kind", "rank2to3", "--steps", "2", "--csv")
    assert code == 0
    assert out.splitlines() == ["epsilon,distance", "0.125,0.25", "0.0625,0.125"]


def test_demo_border_refuses_one_step_at_parse_time(capsys, monkeypatch):
    import waring.cli

    monkeypatch.setattr(waring.cli, "_cmd_demo_border", lambda args: pytest.fail("the handler ran"))
    code, out, err = run(capsys, "demo-border", "--kind", "rank2to3", "--steps", "1")
    assert (code, out) == (2, "")
    assert err.startswith("usage:") and "argument --steps: expected at least 2" in err


@pytest.mark.parametrize("content", [b"\xff\xfe", b"[" * 100_000], ids=["not-utf8", "nested-100000-deep"])
@pytest.mark.parametrize("command", ["to-poly", "from-poly", "symmetrize", "decompose", "verify-tensor", "verify-decomp"])
def test_an_input_file_that_cannot_be_read_is_bad_input(capsys, tmp_path, command, content):
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    argv = {
        "to-poly": ["to-poly", "--in", str(bad)],
        "from-poly": ["from-poly", "--in", str(bad)],
        "symmetrize": ["symmetrize", "--in", str(bad)],
        "decompose": ["decompose", "--in", str(bad), "--method", "pencil"],
        "verify-tensor": ["verify", "--tensor", str(bad), "--decomp", str(FIXTURES / "a31_decomposition.json")],
        "verify-decomp": ["verify", "--tensor", str(FIXTURES / "a31_tensor.json"), "--decomp", str(bad)],
    }[command]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    if command != "from-poly" or content == b"\xff\xfe":  # deep brackets are a quantic that does not parse
        assert str(bad) in err
