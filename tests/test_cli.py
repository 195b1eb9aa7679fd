import json
import os
import re
import subprocess
import sys
from decimal import Decimal

import mpmath
import pytest

from mstd import enumerate_subsets, fib_index, verify
from mstd.bounds import asymptotic, lower_bound_even, lower_bound_odd, upper_bound
from mstd.cli import main
from mstd.groups import GroupSpec


def run_cli(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def parse_records(out):
    return [json.loads(line) for line in out.strip().splitlines()]


def test_count_json(capsys):
    code, out, _ = run_cli(capsys, "count", "-g", "8")
    assert code == 0
    (rec,) = parse_records(out)
    assert rec["group"] == "8"
    assert rec["mstd_count"] == "0"
    assert rec["total_subsets"] == "256"


def test_count_threads_deterministic(capsys):
    code, out1, _ = run_cli(capsys, "count", "-g", "12,2", "--threads", "1")
    assert code == 0
    code, out4, _ = run_cli(capsys, "count", "-g", "12,2", "--threads", "4")
    assert code == 0
    (r1,), (r4,) = parse_records(out1), parse_records(out4)
    assert r1["mstd_count"] == r4["mstd_count"]
    # both engines run on one thread whatever was asked
    assert r1["threads"] == 1 and r4["threads"] == 1


def test_count_engine_fields(capsys):
    code, out, _ = run_cli(capsys, "count", "-g", "14", "--threads", "2")
    assert code == 0
    (rec,) = parse_records(out)
    assert (rec["engine"], rec["threads"], rec["nodes"], rec["mstd_count"]) == (
        "scan-numpy", 1, None, "28")
    assert (rec["nodes_per_s"], rec["budget"]) == (None, None)
    code, out, _ = run_cli(capsys, "count", "-g", "15", "--threads", "2")
    assert code == 0
    (rec,) = parse_records(out)
    assert (rec["engine"], rec["threads"], rec["mstd_count"]) == ("dfs-numpy", 1, "60")
    assert 0 < int(rec["nodes"]) <= int(rec["budget"])
    assert rec["budget"] == str(enumerate_subsets._dfs_budget(GroupSpec((15,))))
    assert rec["nodes_per_s"] > 0


def test_count_cap_refusal(capsys):
    code, out, err = run_cli(capsys, "count", "-g", "40")
    assert code == 2
    assert out == ""
    assert "cap" in err
    # an estimate under half a second still shows its significant digits
    code, out, err = run_cli(capsys, "count", "-g", "29")
    assert code == 2 and out == ""
    est = re.search(r"\(estimated (\S+)\+ core-seconds\)", err)
    assert est and float(est.group(1)) > 0, err


def test_import_loads_no_numpy():
    # numpy is imported where a scan or the DFS runs, so commands that count
    # nothing do not pay its import time and memory
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (os.path.abspath(src), os.environ.get("PYTHONPATH")) if p
    ))
    code = (
        "import sys, mstd, mstd.cli, mstd.bounds, mstd.forbiddance, mstd.fib_index\n"
        "print('numpy' in sys.modules)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        check=True, timeout=60,
    ).stdout
    assert out.strip() == "False"


def test_count_parse_failure(capsys):
    code, _, err = run_cli(capsys, "count", "-g", "nope")
    assert code == 2
    assert "error" in err


def test_threads_below_one_refused(capsys):
    # every subcommand refuses --threads 0 at parse time, whether or not the
    # value is read later
    for argv in (
        ["verify", "--only", "conway", "--threads", "0"],
        ["bound", "-g", "8", "--threads", "0"],
        ["count", "-g", "8", "--threads", "0"],
        ["forbid", "-g", "8", "-d", "1", "--threads", "-1"],
        ["table", "--max", "4", "--threads", "0"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        assert "--threads" in capsys.readouterr().err, argv


def test_progress_at_most_zero_refused(capsys):
    for value in ("0", "-1", "nan", "soon"):
        with pytest.raises(SystemExit) as exc:
            main(["count", "-g", "8", "--progress", value])
        assert exc.value.code == 2, value
        assert "--progress" in capsys.readouterr().err, value
    code, out, _ = run_cli(capsys, "count", "-g", "8", "--progress", "0.5")
    assert code == 0
    assert parse_records(out)[0]["mstd_count"] == "0"


def test_precision_bits_below_64_refused(capsys, monkeypatch):
    # 0 and 1 bits used to print asymptotic 64.0 for 81 (Z/8) and 2048.0 for
    # 342.06 (Z/9), exit 0; the value is refused while parsing, before any
    # exact count runs
    def no_count(*args, **kwargs):
        raise AssertionError("count_mstd ran before --precision-bits was checked")

    monkeypatch.setattr(enumerate_subsets, "count_mstd", no_count)
    for argv in (
        ["bound", "-g", "8", "--precision-bits", "0"],
        ["bound", "-g", "9", "--precision-bits", "1"],
        ["bound", "-g", "9", "--precision-bits", "63"],
        ["bound", "-g", "26", "--exact", "--precision-bits", "1"],
        ["bound", "-g", "8", "--precision-bits", "many"],
        ["table", "--max", "4", "--precision-bits", "63"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        out, err = capsys.readouterr()
        assert (exc.value.code, out) == (2, ""), argv
        assert "--precision-bits" in err, argv
        if argv[-1] != "many":
            assert "precision_bits must be at least 64" in err, argv
    code, out, _ = run_cli(capsys, "bound", "-g", "8", "--precision-bits", "64")
    assert code == 0
    assert float(parse_records(out)[0]["asymptotic"]) == 81.0


def test_bound_asymptotic_digits_follow_precision(capsys):
    # 64 bits carry 18 significant digits, 400 bits the full 24
    code, out, _ = run_cli(capsys, "bound", "-g", "9", "--precision-bits", "64")
    assert code == 0
    assert parse_records(out)[0]["asymptotic"] == "342.059200278733912"
    code, out, _ = run_cli(capsys, "bound", "-g", "9", "--precision-bits", "400")
    assert code == 0
    assert parse_records(out)[0]["asymptotic"] == "342.059200278733911775302"


def test_bound_records_above_the_int_str_limit(capsys):
    # Z/7151 carries its asymptotic term at 14302 bits, a mantissa that
    # formatting once converted whole; Z/16384 x Z/2 adds an upper bound of
    # more than 4300 digits. Both print exact records.
    for spec, upper_digits in (("7151", 1499), ("16384,2", 7818)):
        group = GroupSpec.from_string(spec)
        code, out, err = run_cli(capsys, "bound", "-g", spec)
        assert (code, err) == (0, ""), spec
        (rec,) = parse_records(out)
        assert len(rec["upper"]) == upper_digits, spec
        assert Decimal(rec["upper"]) == Decimal(upper_bound(group)), spec
        want_lower = lower_bound_odd(group) if group.order % 2 else lower_bound_even(group)
        num, _, den = rec["lower"].partition("/")
        assert Decimal(num) == Decimal(want_lower.numerator), spec
        assert Decimal(den or 1) == Decimal(want_lower.denominator), spec
        with mpmath.workprec(200):
            printed = mpmath.mpf(rec["asymptotic"])
            assert mpmath.almosteq(printed, asymptotic(group), rel_eps=1e-23), spec


def test_bound_report(capsys):
    code, out, _ = run_cli(capsys, "bound", "-g", "8")
    assert code == 0
    (rec,) = parse_records(out)
    assert rec["upper"] == "224"
    assert float(rec["asymptotic"]) == 81.0


def test_bound_odd_groups(capsys):
    for spec in ("9", "9,3"):
        code, out, _ = run_cli(capsys, "bound", "-g", spec)
        assert code == 0
        (rec,) = parse_records(out)
        assert rec["parity"] == "odd"


def test_bound_with_exact(capsys):
    code, out, _ = run_cli(capsys, "bound", "-g", "12", "--exact")
    assert code == 0
    (rec,) = parse_records(out)
    assert rec["exact"] == "24"


def test_forbid_with_oracle(capsys):
    code, out, _ = run_cli(capsys, "forbid", "-g", "8", "-d", "1", "-s", "4", "--oracle")
    assert code == 0
    (rec,) = parse_records(out)
    assert rec["independent_sets"] == "17"
    assert rec["oracle"] == "17"
    assert rec["oracle_match"] is True


def test_forbid_prism_ladder_counters(capsys):
    code, out, _ = run_cli(capsys, "forbid", "-g", "9", "-d", "3", "-s", "0")
    assert code == 0
    (rec,) = parse_records(out)
    assert rec["independent_sets"] == "39"
    assert rec["prisms"] == 1
    assert rec["ladders"] == 1


def test_forbid_repeated_sum_keeps_prism_ladder_counters(capsys):
    # -s 0,0 forbids the one sum 0, the same graph as -s 0
    records = []
    for sums in ("0", "0,0"):
        code, out, _ = run_cli(capsys, "forbid", "-g", "9", "-d", "3", "-s", sums)
        assert code == 0
        records.append(parse_records(out))
    assert records[0] == records[1]
    assert (records[1][0]["prisms"], records[1][0]["ladders"]) == (1, 1)


def test_forbid_cycles(capsys):
    code, out, _ = run_cli(capsys, "forbid", "-g", "8", "-d", "4")
    assert code == 0
    (rec,) = parse_records(out)
    assert rec["independent_sets"] == "81"
    comps = json.loads(rec["components"])
    assert comps == [{"kind": "edge", "param": 2, "size": 2, "count": 4}]


def test_forbid_above_eliminator_cap(capsys):
    # one generic 56-vertex component: over the eliminator's 40-vertex cap
    code, out, _ = run_cli(capsys, "forbid", "-g", "56", "--diffs", "1,9")
    assert code == 0
    (rec,) = parse_records(out)
    assert rec["independent_sets"] == "8249808495"
    assert json.loads(rec["components"])[0]["kind"] == "generic"


def test_forbid_all_odd_differences(capsys):
    # K_{20,20}: 2^20 + 2^20 - 1 independent sets
    diffs = ",".join(str(d) for d in range(1, 20, 2))
    code, out, _ = run_cli(capsys, "forbid", "-g", "40", "--diffs", diffs)
    assert code == 0
    (rec,) = parse_records(out)
    assert rec["independent_sets"] == "2097151"


def test_forbid_frontier_state_cap_refusal(capsys, monkeypatch):
    monkeypatch.setattr(fib_index, "FRONTIER_STATE_CAP", 8)
    code, out, err = run_cli(capsys, "forbid", "-g", "56", "--diffs", "1,9")
    assert code == 2 and out == ""
    assert "more than 8 frontier states (FRONTIER_STATE_CAP)" in err


def test_forbid_prints_counts_past_the_int_str_limit(capsys):
    # one 5000-cycle: the Lucas number L_5000, 1045 digits
    lucas = [2, 1]
    for _ in range(4999):
        lucas.append(lucas[-1] + lucas[-2])
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        code, out, err = run_cli(capsys, "forbid", "-g", "5000", "-d", "1")
        assert (code, err) == (0, "")
        (rec,) = parse_records(out)
        assert len(rec["independent_sets"]) == 1045
        assert Decimal(rec["independent_sets"]) == Decimal(lucas[5000])
    finally:
        sys.set_int_max_str_digits(limit)


def test_forbid_edge_dump(capsys):
    code, out, err = run_cli(capsys, "forbid", "-g", "8", "-d", "1", "-s", "4", "--edges")
    assert code == 0
    assert "2 2" in err.splitlines()


def test_verify_selected(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--only", "conway,z8-example,closed-forms", "--max-order", "8"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 3
    assert all(line.startswith("PASS") for line in lines)


def test_verify_json_records(capsys):
    only = "conway,lift,closed-forms"
    code, text, _ = run_cli(capsys, "verify", "--only", only, "--max-order", "8")
    assert code == 0
    code, out, _ = run_cli(capsys, "verify", "--only", only, "--max-order", "8", "--format", "json")
    assert code == 0
    records = parse_records(out)
    assert [sorted(rec) for rec in records] == [
        ["cases", "detail", "elapsed_s", "name", "passed"]
    ] * 3
    assert [rec["name"] for rec in records] == only.split(",")
    assert all(rec["passed"] is True for rec in records)
    assert [rec["cases"] for rec in records[:2]] == [1, 2]
    assert all(isinstance(rec["elapsed_s"], float) and rec["elapsed_s"] >= 0 for rec in records)
    # the default text lines carry the same details
    assert text.splitlines() == [f"PASS {rec['name']}: {rec['detail']}" for rec in records]


def test_verify_unknown_check(capsys):
    code, _, err = run_cli(capsys, "verify", "--only", "not-a-check")
    assert code == 2
    assert "unknown check" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--only", "bijection,nope"], "unknown check 'nope'"),
        (["--max-order", "1"], "max_order must be >= 4"),
        (["--max-order", "-5", "--only", "bijection,sandwich,half-set"], "max_order must be >= 4"),
    ],
)
def test_verify_arguments_checked_before_any_check(capsys, monkeypatch, argv, message):
    def never(cfg):
        raise AssertionError("a check ran before the arguments were checked")

    for name in verify.CHECKS:
        monkeypatch.setitem(verify.CHECKS, name, never)
    code, out, err = run_cli(capsys, "verify", *argv)
    assert (code, out) == (2, "")
    assert message in err


def test_verify_list(capsys):
    code, out, _ = run_cli(capsys, "verify", "--list-checks")
    assert code == 0
    assert "bijection" in out.split()


def test_table_csv(capsys):
    code, out, _ = run_cli(
        capsys, "table", "--family", "cyclic-even", "--min", "8", "--max", "12",
        "--format", "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("group,order,parity")
    assert len(lines) == 4  # header + 8, 10, 12


def test_table_zn_x_z2(capsys):
    code, out, _ = run_cli(
        capsys, "table", "--family", "zn-x-z2", "--min", "4", "--max", "6"
    )
    assert code == 0
    recs = parse_records(out)
    assert [r["group"] for r in recs] == ["4,2", "5,2", "6,2"]
    assert all("exact" in r for r in recs)


def test_table_max_order_zero_counts_none(capsys):
    code, out, _ = run_cli(capsys, "table", "--max", "6", "--max-order", "0")
    assert code == 0
    recs = parse_records(out)
    assert len(recs) == 5
    assert all(r["exact"] == "" for r in recs)


def test_env_sets_no_defaults(capsys, monkeypatch):
    # the CLI reads no MSTD_* variable, so neither may blank `exact` or fail the parse
    monkeypatch.setenv("MSTD_MAX_ORDER", "2")
    monkeypatch.setenv("MSTD_THREADS", "abc")
    code, out, _ = run_cli(capsys, "table", "--family", "cyclic", "--min", "11", "--max", "12")
    assert code == 0
    assert [r["exact"] for r in parse_records(out)] == ["0", "24"]


def test_table_format(capsys):
    code, out, _ = run_cli(
        capsys, "table", "--family", "cyclic-odd", "--min", "3", "--max", "9",
        "--format", "table",
    )
    assert code == 0
    header = out.splitlines()[0]
    assert "group" in header and "upper" in header
