import json
from pathlib import Path

import jsonschema
import pytest

from ncthick import cli

SCHEMAS = Path(__file__).resolve().parent.parent / "docs" / "schemas"


def _schema(name):
    return json.loads((SCHEMAS / name).read_text())


def _run(capsys, *argv):
    code = cli.run(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestNc:
    def test_count(self, capsys):
        code, out, _ = _run(capsys, "nc", "--type", "A2", "--format", "count")
        assert code == 0
        assert out.strip() == "5"

    def test_json_schema(self, capsys):
        code, out, _ = _run(capsys, "nc", "--type", "A3")
        assert code == 0
        jsonschema.validate(json.loads(out), _schema("nc_lattice.schema.json"))

    def test_kronecker_json_schema(self, capsys):
        code, out, _ = _run(capsys, "nc", "--type", "KRONECKER", "--bound", "1")
        assert code == 0
        data = json.loads(out)
        jsonschema.validate(data, _schema("nc_lattice.schema.json"))
        assert len(data["elements"]) == 6

    def test_dot(self, capsys):
        code, out, _ = _run(capsys, "nc", "--type", "A2", "--format", "dot")
        assert code == 0
        assert out.startswith("digraph nc {")
        assert out.count("->") == 6

    def test_deterministic(self, capsys):
        _, out1, _ = _run(capsys, "nc", "--type", "A3")
        _, out2, _ = _run(capsys, "nc", "--type", "A3")
        assert out1 == out2


class TestBraid:
    def test_count_line(self, capsys):
        code, out, _ = _run(capsys, "braid", "orbit", "--type", "A2", "--count")
        assert code == 0
        assert out.strip() == "3 factorizations, 1 orbit"

    def test_json_schema(self, capsys):
        code, out, _ = _run(capsys, "braid", "orbit", "--type", "A3")
        assert code == 0
        data = json.loads(out)
        jsonschema.validate(data, _schema("factorizations.schema.json"))
        assert len(data["factorizations"]) == 16

    @pytest.mark.parametrize("count", [True, False])
    def test_orbit_mismatch_exits_1(self, capsys, monkeypatch, count):
        # an orbit missing one factorization is a verification failure:
        # stdout as before, one error line, exit 1
        from ncthick import braid

        real = braid.hurwitz_orbit
        monkeypatch.setattr(braid, "hurwitz_orbit", lambda f: real(f)[1:])
        argv = ["braid", "orbit", "--type", "A2"] + ["--count"] * count
        code, out, err = _run(capsys, *argv)
        assert code == 1
        assert err == "error: the Hurwitz orbit disagrees with the brute-force factorizations\n"
        if count:
            assert out == "3 factorizations, ? orbits\n"
        else:
            assert len(json.loads(out)["factorizations"]) == 2


class TestArq:
    def test_json_schema(self, capsys):
        code, out, _ = _run(capsys, "arq", "knit", "--type", "A2", "--window", "0:3")
        assert code == 0
        jsonschema.validate(json.loads(out), _schema("hammocks.schema.json"))

    def test_check_mesh(self, capsys):
        code, out, _ = _run(
            capsys, "arq", "knit", "--type", "A3", "--window", "0:4", "--check-mesh",
            "--format", "dot",
        )
        assert code == 0
        assert "0 violations" in out

    def test_negative_window(self, capsys):
        code, out, _ = _run(
            capsys, "arq", "knit", "--type", "A2", "--window", "-3:3", "--format", "dot"
        )
        assert code == 0
        assert '"-3:1"' in out

    def test_bad_window(self, capsys):
        code, _, err = _run(capsys, "arq", "knit", "--type", "A2", "--window", "oops")
        assert code == 2
        assert err.startswith("usage-error:")

    def test_window_cap(self, capsys, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("work started before the window cap check")

        monkeypatch.setattr(cli.derived.repcat, "dynkin_quiver", forbidden)
        code, out, err = _run(capsys, "arq", "knit", "--type", "A2", "--window", "0:100000")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ResourceLimitError:")
        assert "100001 levels" in err and "cap 1024" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("label,node", [("A64", 64), ("D65", 1)])
    def test_knitting_cap(self, capsys, label, node):
        # one typed line that names the cap, not a hammock that never dies
        code, out, err = _run(capsys, "arq", "knit", "--type", label, "--window", "0:0")
        assert code == 2
        assert out == ""
        assert err == (
            f"error: ResourceLimitError: hammock of node {node} of {label} "
            "needs more than the 64-level knitting cap\n"
        )


class TestThick:
    @pytest.mark.parametrize("label", ["A3", "B3", "D4", "G2"])
    def test_dot_is_the_nc_dot(self, capsys, label):
        # the thick lattice is NC(W, c), labelled by the same least words
        thick = _run(capsys, "thick", "lattice", "--type", label, "--format", "dot")
        plain = _run(capsys, "nc", "--type", label, "--format", "dot")
        assert thick == plain and thick[0] == 0

    def test_json_schema_with_oracle(self, capsys):
        code, out, _ = _run(capsys, "thick", "lattice", "--type", "A2", "--oracle")
        assert code == 0
        data = json.loads(out)
        jsonschema.validate(data, _schema("thick_lattice.schema.json"))
        assert data["oracle_match"] is True
        assert data["oracle_count"] == 5

    def test_oracle_cap_before_any_work(self, capsys, monkeypatch):
        # E8 has 120 indecomposables: the cap must fire before the module
        # category or the thick lattice is built
        def forbidden(*args, **kwargs):
            raise AssertionError("work started before the oracle cap check")

        monkeypatch.setattr(cli.thicklat, "_ClosureTables", forbidden)
        monkeypatch.setattr(cli.thicklat, "thick_lattice", forbidden)
        code, out, err = _run(capsys, "thick", "lattice", "--type", "E8", "--oracle")
        assert code == 2
        assert out == ""
        assert err == "error: ResourceLimitError: 120 indecomposables exceed the oracle cap 12\n"

    def test_oracle_cap_before_any_work_dot(self, capsys, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("work started before the oracle cap check")

        monkeypatch.setattr(cli.thicklat, "thick_lattice", forbidden)
        code, out, err = _run(capsys, "thick", "lattice", "--type", "E8", "--oracle", "--format", "dot")
        assert code == 2
        assert out == ""
        assert err == "error: ResourceLimitError: 120 indecomposables exceed the oracle cap 12\n"

    def test_oracle_multiplicity_before_any_work(self, capsys, monkeypatch):
        # D4 passes the 12-root cap, but some Hom or Ext^1 has dimension 2:
        # the Euler form tells before the module category is built
        def forbidden(*args, **kwargs):
            raise AssertionError("work started before the multiplicity check")

        monkeypatch.setattr(cli.thicklat.repcat, "_category", forbidden)
        monkeypatch.setattr(cli.thicklat, "_ClosureTables", forbidden)
        monkeypatch.setattr(cli.thicklat, "thick_lattice", forbidden)
        code, out, err = _run(capsys, "thick", "lattice", "--type", "D4", "--oracle")
        assert code == 2
        assert out == ""
        assert err == (
            "error: ResourceLimitError: wide oracle needs multiplicity-free Hom and Ext tables\n"
        )

    def test_oracle_dot_prints_plain_dot(self, capsys):
        code, plain, _ = _run(capsys, "thick", "lattice", "--type", "A3", "--format", "dot")
        assert code == 0
        code, checked, err = _run(capsys, "thick", "lattice", "--type", "A3", "--oracle", "--format", "dot")
        assert code == 0 and err == ""
        assert checked == plain

    def test_oracle_mismatch_dot(self, capsys, monkeypatch):
        wrong = cli.thicklat.WideOracleResult(count=4, subsets=())
        monkeypatch.setattr(cli.thicklat, "wide_subcategory_oracle", lambda q: wrong)
        code, out, err = _run(capsys, "thick", "lattice", "--type", "A2", "--oracle", "--format", "dot")
        assert code == 1
        assert out.startswith("digraph")
        assert err == "error: thick lattice disagrees with the wide-subcategory oracle\n"


class TestKronecker:
    def test_json_schema(self, capsys):
        code, out, _ = _run(capsys, "kronecker", "--bound", "1", "--points", "3")
        assert code == 0
        data = json.loads(out)
        jsonschema.validate(data, _schema("kronecker_lattice.schema.json"))
        assert len(data["elements"]) == 6 + 8 + 1 - 2

    def test_dot(self, capsys):
        code, out, _ = _run(capsys, "kronecker", "--bound", "0", "--points", "2", "--format", "dot")
        assert code == 0
        assert out.startswith("digraph kronecker {")


class TestVerify:
    def test_quick_suite(self, capsys):
        code, out, _ = _run(capsys, "verify", "--suite", "braid")
        assert code == 0
        assert "PASS braid/hurwitz-transitivity" in out

    def test_unknown_suite_is_usage_error(self, capsys):
        code, _, err = _run(capsys, "verify", "--suite", "bogus")
        assert code == 2
        assert err.startswith("usage-error:")


class TestErrors:
    def test_unknown_label(self, capsys):
        code, _, err = _run(capsys, "nc", "--type", "H3")
        assert code == 2
        assert err.startswith("error:") and "\n" == err[err.index("\n") :]

    @pytest.mark.parametrize("label", ["A3\n", "A\u0663", "A01"])
    def test_non_canonical_label(self, capsys, label):
        code, out, err = _run(capsys, "nc", "--type", label, "--format", "count")
        assert code == 2
        assert out == ""
        assert err == f"error: UnsupportedLabelError: unknown type label {label!r}\n"

    def test_unknown_flag(self, capsys):
        code, _, err = _run(capsys, "nc", "--type", "A2", "--bogus")
        assert code == 2
        assert err.startswith("usage-error:")

    def test_rank_cap_is_usage_error(self, capsys):
        # must fail fast, before any orbit computation starts
        code, _, err = _run(capsys, "braid", "orbit", "--type", "E6", "--count")
        assert code == 2
        assert err.startswith("error: ResourceLimitError")


class TestEmit:
    class _Stdout:
        def __init__(self):
            self.writes = []

        def write(self, text):
            self.writes.append(text)

    @pytest.mark.parametrize("text", ["", "25080", "{}\n", "a\nb"])
    def test_writes_the_text_itself(self, monkeypatch, text):
        # the text object is written as it is, and a newline after it only
        # where it lacks one: no copy of the text is built to append it
        out = self._Stdout()
        monkeypatch.setattr(cli.sys, "stdout", out)
        cli._emit(text)
        assert out.writes[0] is text
        assert out.writes[1:] == ([] if text.endswith("\n") else ["\n"])


class TestSizeBounds:
    """Bad --bound/--points exit 2 with one typed line, before any work."""

    @staticmethod
    def _forbid_work(monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("work started before the size check")

        monkeypatch.setattr(cli.cartan, "build_cartan", forbidden)

    def _rejected(self, capsys, monkeypatch, error, *argv):
        self._forbid_work(monkeypatch)
        code, out, err = _run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {error}:")
        assert err.count("\n") == 1
        return err

    def test_nc_kronecker_negative_bound(self, capsys, monkeypatch):
        err = self._rejected(capsys, monkeypatch, "OutOfRangeError", "nc", "--type", "KRONECKER", "--bound", "-1")
        assert "at least 0" in err

    def test_nc_finite_negative_bound(self, capsys, monkeypatch):
        err = self._rejected(capsys, monkeypatch, "OutOfRangeError", "nc", "--type", "A3", "--bound", "-4", "--format", "count")
        assert "at least 0" in err

    def test_nc_finite_nonnegative_bound_ignored(self, capsys):
        for bound in ("0", "7", "4097"):  # past the KRONECKER cap too
            assert _run(capsys, "nc", "--type", "A3", "--bound", bound, "--format", "count") == (0, "14\n", "")

    def test_kronecker_negative_bound(self, capsys, monkeypatch):
        self._rejected(capsys, monkeypatch, "OutOfRangeError", "kronecker", "--bound", "-2", "--points", "2")

    def test_kronecker_negative_points(self, capsys, monkeypatch):
        err = self._rejected(capsys, monkeypatch, "OutOfRangeError", "kronecker", "--points", "-1")
        assert "at least 0" in err

    def test_kronecker_points_cap(self, capsys, monkeypatch):
        err = self._rejected(capsys, monkeypatch, "ResourceLimitError", "kronecker", "--points", "17")
        assert "cap 16" in err

    def test_zero_sizes_accepted(self, capsys):
        code, out, _ = _run(capsys, "kronecker", "--bound", "0", "--points", "0")
        assert code == 0
        assert len(json.loads(out)["elements"]) == 4

    @pytest.mark.parametrize("command", [("nc", "--type", "KRONECKER"), ("kronecker",)])
    def test_kronecker_bound_cap(self, capsys, monkeypatch, command):
        err = self._rejected(capsys, monkeypatch, "ResourceLimitError", *command, "--bound", "4097")
        assert err == "error: ResourceLimitError: truncation bound 4097 exceeds the cap 4096\n"

    @pytest.mark.parametrize(
        "command",
        [("nc", "--format", "count"), ("nc",), ("thick", "lattice"), ("thick", "lattice", "--format", "dot")],
    )
    @pytest.mark.parametrize("label", ["A11", "A40", "D11"])
    def test_nc_size_cap_before_any_work(self, capsys, monkeypatch, command, label):
        # |NC| comes from the degrees: no Coxeter element, perp or growth
        def forbidden(*args, **kwargs):
            raise AssertionError("work started before the size cap check")

        for name in ("perp_masks", "left_perp_masks"):
            monkeypatch.setattr(cli.noncrossing, name, forbidden)
        for name in ("coxeter_element", "packing"):
            monkeypatch.setattr(cli.cartan, name, forbidden)
        code, out, err = _run(capsys, *command, "--type", label)
        assert code == 2
        assert out == ""
        size = cli.noncrossing.nc_size(cli.cartan.build_cartan(label))
        assert err == f"error: ResourceLimitError: NC({label}) has {size} elements, past the cap 200000\n"
