"""Unit tests for the reprolint v2 dataflow passes.

Covers the two passes directly (cowcheck, constraints) on synthetic
inputs and tmp-clone repos, the ``repro lint`` CLI wrapper, the
timing slab's slot coverage of ``TimingCore``, and the tier-1
wall-clock budget for the full analysis suite.  The fixture round-trips (each rule fires on its committed broken module)
live in ``tests/test_reprolint.py``; these tests pin the *semantics*
each pass must get right.
"""

import ast
import json
import os
import time

from repro.analysis import constraints, cowcheck
from repro.analysis.lint import lint_paths
from repro.analysis.rules import check_file
from repro.cli import main as cli_main
from repro.dram.soa import TimingCore
from repro.dram.soa_batch import BatchTimingCore

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FIXTURES = os.path.join(REPO_ROOT, "tests", "lint_fixtures")


# ----------------------------------------------------------------------
# Slot coverage: every TimingCore state slot has a slab column, and
# lane() rebinds it onto that column's row.
# ----------------------------------------------------------------------
def _slot_coverage(slab):
    """``(missing, unwired)`` TimingCore state slots for ``slab``.

    ``missing`` have no column in ``slab.columns``; ``unwired`` are left
    by ``lane()`` on a private list instead of the slab row, which would
    silently unshare that field.
    """
    state = [n for n in TimingCore.__slots__
             if n not in ("num_ranks", "num_banks")]
    missing = [n for n in state if n not in slab.columns]
    core = slab.lane(0)
    unwired = [n for n in state if n in missing
               or getattr(core, n) is not slab.columns[n][0]]
    return missing, unwired


def test_slot_coverage_clean_when_slab_covers_scalar():
    for backend in (None, "list"):
        slab = BatchTimingCore(2, 2, 8, backend=backend)
        assert _slot_coverage(slab) == ([], [])


def test_slot_coverage_flags_missing_and_unwired_slots():
    # 'pd' exists on the scalar core but its column is gone, so lane()
    # never rebinds it: both checks must fire.
    slab = BatchTimingCore(2, 2, 8, backend="list")
    del slab.columns["pd"]
    assert _slot_coverage(slab) == (["pd"], ["pd"])


# ----------------------------------------------------------------------
# COW/aliasing pass.
# ----------------------------------------------------------------------
_PROTOCOL = cowcheck.Protocol(("_tags",), ("lane",), ("_own",), 1)


def _cow_findings(source):
    fn = ast.parse(source).body[-1]
    assert isinstance(fn, ast.FunctionDef)
    return cowcheck.check_function(fn.name, fn, _PROTOCOL)


def test_unguarded_view_mutation_is_flagged():
    findings = _cow_findings(
        "def f(self, i):\n"
        "    tags = self._tags[i]\n"
        "    tags['k'] = 1\n"
    )
    assert len(findings) == 1
    assert "possibly-shared" in findings[0][1]


def test_root_mutation_is_safe():
    # The outer container is a fresh copy; rebinding its element is the
    # privatization idiom itself, never a finding.
    assert _cow_findings(
        "def f(self, i, t):\n"
        "    self._tags[i] = t\n"
    ) == []


def test_shared_call_views_and_mutating_methods():
    findings = _cow_findings(
        "def f(slab, i):\n"
        "    view = lane(i)\n"
        "    view.update({})\n"
    )
    assert len(findings) == 1
    assert ".update() on" in findings[0][1]


def test_guarded_privatizer_anchors_downstream_mutation():
    # The set_assoc shape: the *guard* dominates the mutation even
    # though the privatizing branch does not.
    assert _cow_findings(
        "def f(self, i):\n"
        "    tags = self._tags[i]\n"
        "    if not self.owned:\n"
        "        tags = self._own(i)\n"
        "    tags['k'] = 1\n"
    ) == []


def test_fresh_copy_rebind_anchors():
    # The dbi thaw shape: a guarded set() self-rebind privatizes.
    assert _cow_findings(
        "def f(self, key):\n"
        "    lines = self._tags[key]\n"
        "    if isinstance(lines, tuple):\n"
        "        lines = set(lines)\n"
        "    lines.add(3)\n"
    ) == []


def test_privatizer_after_mutation_does_not_anchor():
    findings = _cow_findings(
        "def f(self, i):\n"
        "    tags = self._tags[i]\n"
        "    tags['k'] = 1\n"
        "    tags = self._own(i)\n"
    )
    assert len(findings) == 1


def test_for_loop_over_root_yields_views():
    findings = _cow_findings(
        "def f(self):\n"
        "    for row in self._tags:\n"
        "        row.clear()\n"
    )
    assert len(findings) == 1
    assert ".clear() on" in findings[0][1]


def test_missing_protocol_in_registered_module():
    findings = cowcheck.check_module(ast.parse("x = 1\n"), "m.py", True)
    assert len(findings) == 1
    assert findings[0][0] == 1
    assert "REPRO_COW_PROTOCOL" in findings[0][1]
    # Unregistered modules without a protocol are simply skipped.
    assert cowcheck.check_module(ast.parse("x = 1\n"), "m.py", False) == []


def test_shares_pragma_suppresses_cow_finding(tmp_path):
    def body(pragma):
        return (
            "REPRO_COW_PROTOCOL = {\n"
            '    "shared_roots": ("_tags",),\n'
            '    "shared_calls": (),\n'
            '    "privatizers": (),\n'
            "}\n"
            "\n"
            "\n"
            "class C:\n"
            "    def f(self, i):\n"
            "        tags = self._tags[i]\n"
            f"        tags['k'] = 1{pragma}\n"
        )

    bare = tmp_path / "bare.py"
    bare.write_text(body(""))
    flagged = check_file(str(bare), str(tmp_path), ["cow-unsafe-mutation"])
    assert len(flagged) == 1

    marked = tmp_path / "marked.py"
    marked.write_text(
        body("  # reprolint: shares[test: aliasing is the point]")
    )
    assert check_file(str(marked), str(tmp_path),
                      ["cow-unsafe-mutation"]) == []


# ----------------------------------------------------------------------
# Timing-constraint coverage pass.
# ----------------------------------------------------------------------
def test_issue_site_recognition():
    fn = ast.parse(
        "def f(core, rank, g, r, row, now):\n"
        "    core.open_row[g] = row\n"
        "    core.open_row[g] = -1\n"
        "    core.next_col_ok[r] = now\n"
        "    rank.do_refresh(now)\n"
        "    rank.enter_power_down(now)\n"
    ).body[0]
    commands = [site.command for site in constraints.issue_sites(fn)]
    assert commands == ["ACT", "PRE", "COLUMN", "REF", "PD"]


def test_slice_stores_are_administrative():
    fn = ast.parse(
        "def f(core, fresh):\n"
        "    core.open_row[0:4] = fresh\n"
    ).body[0]
    assert constraints.issue_sites(fn) == []


def test_uncovered_act_names_every_missed_parameter():
    findings = constraints.check_module(
        ast.parse(
            "def sneak(core, g, row):\n"
            "    core.open_row[g] = row\n"
        ),
        "m.py",
    )
    assert len(findings) == 1
    message = findings[0][1]
    for param in ("act_ready", "next_act_ok", "tFAW", "gate"):
        assert param in message


def test_caller_union_covers_unconditional_helpers():
    # The _try_column shape: the helper commits unconditionally, the
    # caller performed every screen — the union covers the site.
    tree = ast.parse(
        "def _commit(core, g, row):\n"
        "    core.open_row[g] = row\n"
        "\n"
        "def step(core, g, row, now):\n"
        "    if core.act_ready[g] <= now and core.next_act_ok <= now:\n"
        "        if core.faw_ok(now) and core.gate <= now:\n"
        "            _commit(core, g, row)\n"
    )
    assert constraints.check_module(tree, "m.py") == []


def test_helper_without_screening_caller_is_flagged():
    tree = ast.parse(
        "def _commit(core, g, row):\n"
        "    core.open_row[g] = row\n"
        "\n"
        "def step(core, g, row, now):\n"
        "    _commit(core, g, row)\n"
    )
    findings = constraints.check_module(tree, "m.py")
    assert len(findings) == 1
    assert "_commit" in findings[0][1]


def test_admin_functions_are_exempt():
    tree = ast.parse(
        "def reset_rows(core):\n"
        "    core.open_row[0] = -1\n"
        "\n"
        "def restore_rows(core, snap):\n"
        "    core.open_row[0] = snap[0]\n"
    )
    assert constraints.check_module(tree, "m.py") == []


def test_unpacked_alias_reads_count_as_consultation():
    # The hot path unpacks timing state into suffixed locals; substring
    # matching must accept them as consultation.
    tree = ast.parse(
        "def go(core, g, row, now):\n"
        "    act_ready_g = core.timers[0]\n"
        "    next_act_ok_a = core.timers[1]\n"
        "    faw_ok_a = core.timers[2]\n"
        "    gate_a = core.timers[3]\n"
        "    if act_ready_g <= now <= next_act_ok_a <= faw_ok_a <= gate_a:\n"
        "        core.open_row[g] = row\n"
    )
    assert constraints.check_module(tree, "m.py") == []


def test_timing_scope_and_opt_in():
    assert constraints.applies_to("src/repro/controller/policy.py", "")
    assert constraints.applies_to("src/repro/dram/soa.py", "")
    assert not constraints.applies_to("src/repro/sim/system.py", "x = 1\n")
    assert constraints.applies_to(
        "tests/lint_fixtures/whatever.py", "# reprolint: timing\n"
    )


# ----------------------------------------------------------------------
# `repro lint` CLI wrapper.
# ----------------------------------------------------------------------
_COW_FIXTURE = os.path.join(FIXTURES, "cow_unsafe_mutation.py")


def test_cli_lint_json_report(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(REPO_ROOT)
    out = tmp_path / "report.json"
    code = cli_main([
        "lint", _COW_FIXTURE, "--format", "json",
        "--json-out", str(out), "--no-typegate",
    ])
    assert code == 1
    report = json.loads(capsys.readouterr().out)
    assert report["version"] == 1
    assert report["typegate"] is None
    assert set(report["counts"]) == {"cow-unsafe-mutation"}
    assert all(
        f["path"] == "tests/lint_fixtures/cow_unsafe_mutation.py"
        for f in report["findings"]
    )
    # --json-out writes the same document CI archives.
    assert json.loads(out.read_text()) == report


def test_cli_lint_github_annotations(monkeypatch, capsys):
    monkeypatch.chdir(REPO_ROOT)
    code = cli_main([
        "lint", _COW_FIXTURE, "--format", "github", "--no-typegate",
    ])
    assert code == 1
    lines = [
        line for line in capsys.readouterr().out.splitlines() if line
    ]
    assert lines
    for line in lines:
        assert line.startswith(
            "::error file=tests/lint_fixtures/cow_unsafe_mutation.py,line="
        )
        assert "title=reprolint cow-unsafe-mutation::" in line


def test_cli_lint_clean_file_exits_zero(monkeypatch, capsys):
    monkeypatch.chdir(REPO_ROOT)
    target = os.path.join(REPO_ROOT, "src", "repro", "analysis", "registry.py")
    assert cli_main(["lint", target, "--no-typegate"]) == 0
    assert "0 findings" in capsys.readouterr().err


def test_cli_lint_rejects_unknown_rule(monkeypatch, capsys):
    monkeypatch.chdir(REPO_ROOT)
    code = cli_main([
        "lint", _COW_FIXTURE, "--select", "no-such-rule", "--no-typegate",
    ])
    assert code == 2
    assert "no-such-rule" in capsys.readouterr().err


# ----------------------------------------------------------------------
# Tier-1 budget: the full analysis suite must stay cheap enough to run
# on every commit (v1 rules + both dataflow passes over src/ and tests/).
# ----------------------------------------------------------------------
def test_full_analysis_suite_clean_and_under_budget():
    start = time.monotonic()  # reprolint: allow[determinism-wallclock]
    findings = lint_paths(
        [os.path.join(REPO_ROOT, "src"), os.path.join(REPO_ROOT, "tests")],
        repo_root=REPO_ROOT,
    )
    elapsed = time.monotonic() - start  # reprolint: allow[determinism-wallclock]
    assert findings == [], [f.render() for f in findings]
    # ~0.6 s locally; 30 s leaves a wide margin for CI runners while
    # still catching an accidental quadratic blowup in the passes.
    assert elapsed < 30.0, f"analysis suite took {elapsed:.1f}s"
