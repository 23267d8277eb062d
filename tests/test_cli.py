import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import arrsym
from arrsym import corpus
from arrsym.cli import main


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("corpus")
    corpus.export_data(path)
    return path


@pytest.fixture(scope="module")
def arr_files(tmp_path_factory, request):
    from arrsym.moduli import derive_constraint, realize_components
    path = tmp_path_factory.mktemp("arrs")
    case = corpus.get_case("{1}")
    constraint = derive_constraint(case.plan, case.config)
    plus, minus = realize_components(case.plan, constraint)
    plus_path = path / "plus.arr"
    minus_path = path / "minus.arr"
    plus_path.write_text(plus.serialize())
    minus_path.write_text(minus.serialize())
    return plus_path, minus_path


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cases(capsys):
    code, out, _ = run(capsys, "cases")
    assert code == 0
    assert out.splitlines() == corpus.list_cases()


def test_parse(capsys, data_dir):
    code, out, _ = run(capsys, "parse", str(data_dir / "case-1.cfg"))
    assert code == 0
    assert "10 lines" in out and "9 double(s)" in out


def test_parse_json(capsys, data_dir):
    code, out, _ = run(capsys, "parse", "--json", str(data_dir / "case-1.cfg"))
    assert code == 0
    data = json.loads(out)
    assert data["lines"] == 10 and data["doubles"] == 9


def test_parse_missing_file(capsys):
    code, _, err = run(capsys, "parse", "/no/such/file.cfg")
    assert code == 2 and "error" in err


def test_parse_invalid_table(capsys, tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("arrangement x\nlines 4\npoint a : 1 2 3\npoint b : 1 2 4\n")
    code, _, err = run(capsys, "parse", str(bad))
    assert code == 2 and "two lines meet once" in err


def test_aut(capsys, data_dir):
    code, out, _ = run(capsys, "aut", str(data_dir / "case-7.cfg"))
    assert code == 0
    assert "order 24" in out and "S4" in out


def test_lattice(capsys, arr_files):
    plus_path, _ = arr_files
    code, out, _ = run(capsys, "lattice", str(plus_path))
    assert code == 0
    assert "2 of multiplicity 4" in out and "8 of multiplicity 3" in out


@pytest.mark.parametrize("radicand, code, expected", [
    ("1000000000000000003", 0, "3 of multiplicity 2"),        # a prime
    ("9" * 640, 2, "step budget"),                             # cannot be factored
])
def test_lattice_over_a_large_radicand(capsys, tmp_path, radicand, code, expected):
    arr = tmp_path / "big.arr"
    arr.write_text(f"arrangement big\nfield sqrt {radicand}\n"
                   "line 1 : 1 ; 0 ; 0\nline 2 : 0 ; 1 ; 0\nline 3 : 1 ; 1 ; w\n")
    status, out, err = run(capsys, "lattice", str(arr))
    assert status == code and expected in out + err


def test_derive(capsys, data_dir):
    code, out, _ = run(capsys, "derive", str(data_dir / "case-6.plan"),
                       str(data_dir / "case-6.cfg"))
    assert code == 0
    assert "t^2 + t - 1" in out and "root product: -1" in out


def test_verify_ok(capsys, arr_files):
    plus_path, minus_path = arr_files
    code, out, _ = run(capsys, "verify", str(plus_path), str(minus_path),
                       "--sigma", "(1 6)(2 5)(3 4)(7 8)")
    assert code == 0
    assert out.strip().endswith("verified")


def test_verify_wrong_sigma(capsys, arr_files):
    plus_path, minus_path = arr_files
    code, out, _ = run(capsys, "verify", str(plus_path), str(minus_path),
                       "--sigma", "id")
    assert code == 1
    assert "not verified" in out


def test_extract_sigma(capsys, arr_files):
    plus_path, minus_path = arr_files
    code, out, _ = run(capsys, "extract-sigma", str(plus_path), str(minus_path))
    assert code == 0
    assert out.strip() == "(1 6)(2 5)(3 4)(7 8)"


def test_extract_sigma_none(capsys, arr_files, tmp_path):
    from arrsym.moduli import derive_constraint, realize_components
    case = corpus.get_case("{6}")
    constraint = derive_constraint(case.plan, case.config)
    plus, _ = realize_components(case.plan, constraint)
    other = tmp_path / "other.arr"
    other.write_text(plus.serialize())
    plus_path, _ = arr_files
    code, out, _ = run(capsys, "extract-sigma", str(plus_path), str(other))
    assert code == 1 and out.strip() == "none"


def test_render(capsys, arr_files, tmp_path):
    plus_path, _ = arr_files
    out_path = tmp_path / "picture.svg"
    code, out, _ = run(capsys, "render", str(plus_path), "--infinity", "10",
                       "-o", str(out_path))
    assert code == 0
    assert "9 segment(s), 7 marker(s)" in out
    assert out_path.read_text().startswith("<?xml")


def test_render_complex_fails(capsys, tmp_path):
    from arrsym.moduli import derive_constraint, realize_components
    case = corpus.get_case("maclane")
    constraint = derive_constraint(case.plan, case.config)
    plus, _ = realize_components(case.plan, constraint)
    arr = tmp_path / "mac.arr"
    arr.write_text(plus.serialize())
    code, _, err = run(capsys, "render", str(arr), "-o", str(tmp_path / "m.svg"))
    assert code == 2 and "no real section" in err


def test_pipeline_success(capsys):
    code, out, _ = run(capsys, "pipeline", "{1}")
    assert code == 0
    assert "status: SUCCESS" in out


def test_pipeline_failure(capsys):
    code, out, _ = run(capsys, "pipeline", "falk-sturmfels")
    assert code == 1
    assert "status: FAILURE" in out


def test_pipeline_unknown(capsys):
    code, _, err = run(capsys, "pipeline", "unknown-case")
    assert code == 2 and "unknown case" in err


def test_internal_errors_are_not_data_errors(capsys, monkeypatch):
    from arrsym import cli

    def broken(*args, **kwargs):
        raise ValueError("an internal bug")

    monkeypatch.setattr(cli, "run_pipeline", broken)
    with pytest.raises(ValueError, match="an internal bug"):
        main(["pipeline", "{1}"])
    code, _, err = run(capsys, "pipeline", "nosuchcase")
    assert code == 2 and "unknown case 'nosuchcase'" in err


def test_render_bad_viewport(capsys, arr_files, tmp_path):
    plus_path, _ = arr_files
    for viewport in ("0,0,1/0,1", "a,b,c,d"):
        code, _, err = run(capsys, "render", str(plus_path), "--viewport", viewport,
                           "-o", str(tmp_path / "v.svg"))
        assert code == 2 and "bad viewport" in err


def test_render_viewport_messages_keep_their_short_form(capsys, arr_files, tmp_path):
    plus_path, _ = arr_files
    for viewport, reason in (("0,0,1/0,1", "Fraction(1, 0)"),
                             ("a,b,c,d", "Invalid literal for Fraction: 'a'")):
        code, _, err = run(capsys, "render", str(plus_path), "--viewport", viewport,
                           "-o", str(tmp_path / "v.svg"))
        assert (code, err) == (2, f"error: bad viewport {viewport!r}: {reason}\n")


def test_render_viewport_message_is_bounded(capsys, arr_files, tmp_path):
    plus_path, _ = arr_files
    code, _, err = run(capsys, "render", str(plus_path), "--viewport", "1,2,3," + "x" * 3000,
                       "-o", str(tmp_path / "v.svg"))
    assert code == 2 and err.startswith("error: bad viewport '1,2,3,xxx")
    assert len(err) < 160


def test_render_viewport_decimals(capsys, arr_files, tmp_path):
    plus_path, _ = arr_files
    for viewport in ("-0.5,-1e-3,2.5,1e2", "0,0,1E300,1e-300"):
        code, out, _ = run(capsys, "render", str(plus_path), "--infinity", "10",
                           f"--viewport={viewport}", "-o", str(tmp_path / "v.svg"))
        assert code == 0 and out.startswith("wrote ")


def _limited_memory():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def test_render_viewport_huge_exponent_is_refused_at_once(arr_files, tmp_path):
    # Fraction("1e999999999") would build a number of about 415 MB; run in a
    # child process with a time and memory limit so a regression cannot hang
    plus_path, _ = arr_files
    src = str(Path(arrsym.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    done = subprocess.run(
        [sys.executable, "-m", "arrsym", "render", str(plus_path),
         "--viewport=0,0,1e999999999,1", "-o", str(tmp_path / "v.svg")],
        env=env, capture_output=True, text=True, timeout=30,
        preexec_fn=_limited_memory)
    assert done.returncode == 2
    assert done.stderr == "error: bad viewport '0,0,1e999999999,1': exponent above 999\n"


def test_render_coordinates_beyond_float_range(capsys, arr_files, tmp_path):
    big = tmp_path / "big.arr"
    big.write_text("arrangement big\nfield rational\nline 1 : 1 ; 0 ; -" + "9" * 400 + "\n")
    plus_path, _ = arr_files
    for argv in ([str(big)], [str(plus_path), "--infinity", "10", "--viewport=0,0,1e400,1"]):
        code, _, err = run(capsys, "render", *argv, "-o", str(tmp_path / "v.svg"))
        assert code == 2
        assert err.startswith("error: coordinate beyond float range") and err.count("\n") == 1


def test_derive_and_pipeline_share_the_constraint_fields(capsys, data_dir):
    keys = ("constraint", "field_d", "roots", "root_product", "discarded")
    for name in corpus.list_cases():
        stem = corpus._SPECS[name].stem
        _, out, _ = run(capsys, "pipeline", name, "--json")
        pipeline = json.loads(out)
        _, out, _ = run(capsys, "derive", "--json", str(data_dir / f"{stem}.plan"),
                        str(data_dir / f"{stem}.cfg"))
        derive = json.loads(out)
        assert list(derive) == ["plan", *keys]
        assert [derive[k] for k in keys] == [pipeline[k] for k in keys], name


def test_pipeline_all(capsys):
    code, out, _ = run(capsys, "pipeline", "all", "--json")
    assert code == 0
    reports = json.loads(out)
    statuses = [r["status"] for r in reports]
    assert statuses.count("SUCCESS") == 8
    assert statuses.count("FAILURE") == 1
    assert reports[-1]["case"] == "falk-sturmfels"


def test_pipeline_json_single(capsys):
    code, out, _ = run(capsys, "pipeline", "nazir-yoshinaga", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["constraint"] == "2t^2 - 2t + 1"
    assert data["root_product"] == "1/2"
    assert any(rec["outcome"] == "verified" for rec in data["attempts"])


def test_usage_error(capsys):
    code = main(["not-a-command"])
    capsys.readouterr()
    assert code == 2
