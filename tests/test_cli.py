import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dlucky
from dlucky import ConflictReport, build_cocktail, cli, graph_from_json, labeling_from_json
from dlucky.parts import HallCertificate, check_hall_bound
from dlucky.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_web_counts(tmp_path, capsys):
    out = tmp_path / "web.json"
    code, _, _ = run(capsys, "gen", "web", "--m", "3", "--n", "6", "-o", str(out))
    assert code == 0
    g = graph_from_json(out.read_text())
    assert g.n == 48


def test_gen_corona_counts(tmp_path, capsys):
    out = tmp_path / "corona.json"
    code, _, _ = run(capsys, "gen", "corona", "--n", "5", "--r", "4", "-o", str(out))
    assert code == 0
    g = graph_from_json(out.read_text())
    assert g.n == 25 and g.edge_count == 30


def test_gen_cocktail_counts(tmp_path, capsys):
    out = tmp_path / "h.json"
    code, _, _ = run(
        capsys, "gen", "cocktail", "--n", "3", "--t", "8", "--r", "4", "-o", str(out)
    )
    assert code == 0
    assert graph_from_json(out.read_text()).n == 120


def test_gen_simple_families_to_stdout(capsys):
    code, out, _ = run(capsys, "gen", "cycle", "--n", "5")
    assert code == 0
    assert graph_from_json(out).edge_count == 5
    code, out, _ = run(capsys, "gen", "cylinder", "--m", "3", "--n", "6")
    assert code == 0
    assert graph_from_json(out).n == 18


def test_gen_invalid_params_exit_2(capsys):
    code, _, err = run(capsys, "gen", "web", "--m", "2", "--n", "6")
    assert code == 2
    assert "m >= 3" in err
    code, _, err = run(capsys, "gen", "corona", "--n", "5")
    assert code == 2
    assert "--r" in err


def test_label_reports_claimed_eta(tmp_path, capsys):
    out = tmp_path / "lab.json"
    code, stdout, _ = run(
        capsys, "label", "corona", "--n", "11", "--r", "1", "-o", str(out)
    )
    assert code == 0
    assert "claimed_eta=6" in stdout
    assert "conflicts=0" in stdout
    assert labeling_from_json(out.read_text()).k_max == 6

    code, stdout, _ = run(capsys, "label", "web", "--m", "4", "--n", "6", "-o", "-")
    assert code == 0
    assert "claimed_eta=4" in stdout

    code, stdout, _ = run(
        capsys, "label", "cocktail", "--n", "3", "--t", "8", "--r", "4", "-o", "-"
    )
    assert code == 0
    assert "claimed_eta=2" in stdout


def test_label_writes_roles_map(tmp_path, capsys):
    roles = tmp_path / "roles.json"
    code, _, _ = run(
        capsys, "label", "corona", "--n", "3", "--r", "1",
        "-o", str(tmp_path / "lab.json"), "--roles", str(roles),
    )
    assert code == 0
    data = json.loads(roles.read_text())
    assert data["clique"] == [0, 1, 2]


def test_round_trip_gen_label_verify(tmp_path, capsys):
    g = tmp_path / "g.json"
    lab = tmp_path / "l.json"
    assert run(capsys, "gen", "corona", "--n", "5", "--r", "4", "-o", str(g))[0] == 0
    assert run(capsys, "label", "corona", "--n", "5", "--r", "4", "-o", str(lab))[0] == 0
    code, stdout, _ = run(capsys, "verify", str(g), str(lab))
    assert code == 0
    assert "d-lucky" in stdout


def test_verify_conflict_exit_1(tmp_path, capsys):
    g = tmp_path / "g.json"
    lab = tmp_path / "l.json"
    g.write_text('{"edges":[[0,1]],"n":2}\n')
    lab.write_text('{"labels":[1,1]}\n')
    code, stdout, _ = run(capsys, "verify", str(g), str(lab))
    assert code == 1
    assert "conflict: edge (0, 1)" in stdout


def test_verify_length_mismatch_exit_2(tmp_path, capsys):
    g = tmp_path / "g.json"
    lab = tmp_path / "l.json"
    g.write_text('{"edges":[[0,1]],"n":2}\n')
    lab.write_text('{"labels":[1,1,1]}\n')
    code, _, err = run(capsys, "verify", str(g), str(lab))
    assert code == 2
    assert "error" in err


def test_deeply_nested_input_exit_2(tmp_path, capsys):
    g = tmp_path / "g.json"
    deep = tmp_path / "deep.json"
    g.write_text('{"edges":[[0,1]],"n":2}\n')
    deep.write_text("[" * 100000 + "\n")
    for argv in (("solve", str(deep)), ("verify", str(g), str(deep))):
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert err.startswith("error: invalid ") and err.count("\n") == 1


def test_verify_json_report(tmp_path, capsys):
    g = tmp_path / "g.json"
    lab = tmp_path / "l.json"
    g.write_text('{"edges":[[0,1]],"n":2}\n')
    lab.write_text('{"labels":[1,2]}\n')
    code, stdout, _ = run(capsys, "verify", str(g), str(lab), "--json")
    assert code == 0
    report = json.loads(stdout)
    assert report["conflicts"] == []
    assert report["d_sums"] == [3, 2]
    assert report["max_label"] == 2


def test_bound_on_web(tmp_path, capsys):
    g = tmp_path / "g.json"
    run(capsys, "gen", "web", "--m", "3", "--n", "6", "-o", str(g))
    code, stdout, _ = run(capsys, "bound", str(g), "--json")
    assert code == 0
    data = json.loads(stdout)
    assert data["bound"] == 4
    assert data["omega"] == 6
    assert data["delta"] == data["max_deg"] == 6


def test_bound_reports_the_part_bound_with_its_certificate(tmp_path, capsys):
    g = tmp_path / "g.json"
    run(capsys, "gen", "cocktail", "--n", "2", "--t", "14", "--r", "1", "-o", str(g))
    code, stdout, _ = run(capsys, "bound", str(g), "--json")
    assert code == 0
    data = json.loads(stdout)
    assert (data["bound"], data["omega"]) == (2, 14)  # Theorem 1's keys are unchanged
    hall = data["hall"]
    assert hall["bound"] == 6
    assert hall["parts"] == [[2 * j, 2 * j + 1] for j in range(14)]
    assert hall["interval"] == [18, 30] and hall["overfull"] == list(range(14))
    cert = HallCertificate(
        tuple(map(tuple, hall["parts"])), tuple(hall["interval"]), tuple(hall["overfull"])
    )
    assert check_hall_bound(graph_from_json(g.read_text()), hall["bound"], cert)
    code, stdout, _ = run(capsys, "bound", str(g))
    assert code == 0
    lines = stdout.splitlines()
    assert lines[0] == "lower bound: 2" and len(lines) == 3
    assert lines[2] == (
        "part bound: 6 over 14 part(s); with 5 labels, 14 part ranges lie in [18, 30], "
        "which has 13 values"
    )


def test_bound_on_cocktail_5_100_5_in_a_child_process(tmp_path):
    # 3,000 vertices and 5^100 maximum cliques: both bounds come from searches
    # that never list the cliques
    src = str(Path(dlucky.__file__).resolve().parent.parent)
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))

    def dlucky_cli(*argv):
        return subprocess.run(
            [sys.executable, "-m", "dlucky.cli", *argv],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
        )

    gen = dlucky_cli("gen", "cocktail", "--n", "5", "--t", "100", "--r", "5", "-o", "g.json")
    assert gen.returncode == 0, gen.stderr
    done = dlucky_cli("bound", "g.json", "--json")
    assert done.returncode == 0, done.stderr
    data = json.loads(done.stdout)
    assert data["bound"] == 2
    assert data["hall"]["bound"] == build_cocktail(5, 100, 5).claimed_eta


def test_bound_rejects_disconnected(tmp_path, capsys):
    g = tmp_path / "g.json"
    g.write_text('{"edges":[[0,1],[2,3]],"n":4}\n')
    code, _, err = run(capsys, "bound", str(g))
    assert code == 2
    assert "connected" in err


def test_solve_k3(tmp_path, capsys):
    g = tmp_path / "g.json"
    run(capsys, "gen", "complete", "--n", "3", "-o", str(g))
    code, stdout, _ = run(capsys, "solve", str(g), "--json")
    assert code == 0
    data = json.loads(stdout)
    assert data["eta"] == 3
    assert len(data["witness"]) == 3
    assert data["nodes_explored"] > 0


def test_solve_budget_exceeded_exit_1(tmp_path, capsys):
    g = tmp_path / "g.json"
    run(capsys, "gen", "complete", "--n", "4", "-o", str(g))
    code, stdout, _ = run(capsys, "solve", str(g), "--max-k", "2")
    assert code == 1
    assert "exceeds budget" in stdout


def test_solve_respects_vertex_cap(tmp_path, capsys):
    g = tmp_path / "g.json"
    run(capsys, "gen", "path", "--m", "17", "-o", str(g))
    code, _, err = run(capsys, "solve", str(g))
    assert code == 2 and "16" in err
    code, stdout, _ = run(capsys, "solve", str(g), "--vertex-cap", "17", "--max-k", "2")
    assert code == 0


def test_export_dot(tmp_path, capsys):
    g = tmp_path / "g.json"
    lab = tmp_path / "l.json"
    run(capsys, "gen", "corona", "--n", "5", "--r", "4", "-o", str(g))
    run(capsys, "label", "corona", "--n", "5", "--r", "4", "-o", str(lab))
    code, stdout, _ = run(capsys, "export-dot", str(g), "--labeling", str(lab))
    assert code == 0
    assert stdout.startswith("graph G {")
    assert 'dsum="' in stdout and 'role="clique"' in stdout

    code, stdout, _ = run(capsys, "export-dot", str(g))
    assert code == 0
    assert "dsum" not in stdout


def test_export_dot_invalid_labeling_exit_2(tmp_path, capsys):
    g = tmp_path / "g.json"
    lab = tmp_path / "l.json"
    run(capsys, "gen", "complete", "--n", "3", "-o", str(g))
    lab.write_text("{broken")
    code, _, err = run(capsys, "export-dot", str(g), "--labeling", str(lab))
    assert code == 2
    lab.write_text('{"labels":[1,2]}\n')  # wrong length
    code, _, err = run(capsys, "export-dot", str(g), "--labeling", str(lab))
    assert code == 2
    assert "labeling has 2 entries for a graph on 3 vertices" in err


def test_unknown_flags_are_errors(capsys):
    code, _, _ = run(capsys, "gen", "complete", "--n", "3", "--frobnicate", "1")
    assert code == 2
    code, _, _ = run(capsys, "nonsense")
    assert code == 2


def test_outputs_are_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run(capsys, "gen", "web", "--m", "4", "--n", "7", "-o", str(a))
    run(capsys, "gen", "web", "--m", "4", "--n", "7", "-o", str(b))
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("error", [RuntimeError("kernel state lost"), MemoryError()])
def test_internal_errors_exit_2_with_one_line(tmp_path, capsys, monkeypatch, error):
    g = tmp_path / "g.json"
    run(capsys, "gen", "complete", "--n", "3", "-o", str(g))

    def broken(args):
        raise error

    monkeypatch.setattr(cli, "cmd_bound", broken)
    code, stdout, err = run(capsys, "bound", str(g))
    assert code == 2 and stdout == ""
    assert err.startswith("error: internal error: " + type(error).__name__)
    assert err.count("\n") == 1 and "Traceback" not in err


def test_construction_error_exits_2_with_its_message(capsys, monkeypatch):
    # a builder whose labeling fails its own check raises ConstructionError
    def failing_verify(g, labeling):
        return ConflictReport(conflicts=(((0, 1), 5),), d_sums=(5,) * g.n)

    monkeypatch.setattr(dlucky.families, "verify", failing_verify)
    code, stdout, err = run(capsys, "label", "corona", "--n", "3", "--r", "1", "-o", "-")
    assert code == 2 and stdout == ""
    assert err == (
        "error: corona(3,1) labeling failed verification with 1 conflicting edge(s): "
        "(0, 1) -> 5\n"
    )


def test_keyboard_interrupt_is_not_swallowed(tmp_path, capsys, monkeypatch):
    g = tmp_path / "g.json"
    run(capsys, "gen", "complete", "--n", "3", "-o", str(g))

    def interrupted(args):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "cmd_solve", interrupted)
    with pytest.raises(KeyboardInterrupt):
        main(["solve", str(g)])
