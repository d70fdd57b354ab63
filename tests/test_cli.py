"""CSV/SVG emission, subcommand behavior, exit codes."""

import xml.etree.ElementTree as ET

import numpy as np
import pytest

from hftkit.cli import (
    CsvTable,
    ScanConfig,
    main,
    run_check,
    run_classify,
    run_fermi,
    run_scan,
)
from hftkit.fermi import FillingSpec, cusp_report
from hftkit.models import oscillator_model
from hftkit.spectral import ParametricModel, SymmetricMatrix
from hftkit.symmetry import CharacterTable, GroupRep


def six_site_scan_config(**overrides):
    base = dict(model="six-site", lam_lo=0.2, lam_hi=2.0, steps=19, slopes=True)
    base.update(overrides)
    return ScanConfig(**base)


# --- CsvTable ---


def test_csv_table_is_rectangular():
    t = CsvTable(header=("a", "b"))
    t.append((1.0, 2.0))
    with pytest.raises(ValueError, match="ragged"):
        t.append((1.0,))
    with pytest.raises(ValueError, match="ragged"):
        CsvTable(header=("a",), rows=[(1.0, 2.0)])


def test_csv_full_precision_format():
    t = CsvTable(header=("x",), rows=[(0.1,), (1.0,), (-1.0 / 3.0,)])
    lines = t.render().splitlines()
    assert lines[1] == "0.10000000000000001"
    assert lines[2] == "1"
    assert lines[3] == "-0.33333333333333331"


def test_csv_round_trip_is_byte_identical():
    table = run_scan(six_site_scan_config())
    text = table.render()
    assert CsvTable.parse(text).render() == text
    assert text.endswith("\n")


# --- scan ---


def test_scan_shape_and_crossing_row():
    table = run_scan(six_site_scan_config())
    assert len(table.header) == 13
    assert len(table.rows) == 19
    at_one = next(row for row in table.rows if abs(row[0] - 1.0) < 1e-12)
    # tracked branch columns e1 and e2 both sit at the doubly degenerate -1
    assert abs(at_one[2] - (-1.0)) <= 1e-9
    assert abs(at_one[3] - (-1.0)) <= 1e-9


def test_scan_columns_are_branch_continuous():
    table = run_scan(six_site_scan_config(slopes=False))
    e1 = table.column("e1")
    # the A1 branch keeps its column through the crossing instead of
    # following the sorted position, so it bends but never jumps
    assert np.abs(np.diff(e1)).max() < 0.12


def test_scan_sorted_flag_restores_ascending_rows():
    table = run_scan(six_site_scan_config(slopes=False, sorted_output=True))
    for row in table.rows:
        assert list(row[1:]) == sorted(row[1:])


def test_scan_oscillator_low_shells():
    config = ScanConfig(model="oscillator", omega=1.0, nmax=12, lam_lo=-0.3, lam_hi=0.3, steps=3)
    table = run_scan(config)
    at_zero = next(row for row in table.rows if abs(row[0]) < 1e-12)
    lowest_four = sorted(at_zero[1:])[:4]
    assert np.abs(np.array(lowest_four) - np.array([1.0, 2.0, 2.0, 3.0])).max() <= 1e-10


def test_scan_validates_grid():
    with pytest.raises(ValueError):
        run_scan(six_site_scan_config(steps=1))
    with pytest.raises(ValueError):
        run_scan(six_site_scan_config(lam_lo=2.0, lam_hi=0.2))


# --- fermi ---


def test_fermi_cusp_block_and_energy_column():
    config = six_site_scan_config(n_particles=2, svg=None)
    table, svgs = run_fermi(config)
    assert table.header == ("lambda", "E0", "dE0")
    assert svgs == {}
    at_one = next(row for row in table.rows if abs(row[0] - 1.0) < 1e-12)
    assert abs(at_one[1] - (-3.0)) <= 1e-9
    cusp_lines = [c for c in table.comments if c.startswith("# cusp,")]
    assert len(cusp_lines) == 1
    _, lam0, left, right = cusp_lines[0].split(",")
    assert abs(float(lam0) - 1.0) <= 1e-8
    assert abs(float(left) - (-1.0 / 3.0)) <= 1e-8
    assert abs(float(right) - (-5.0 / 3.0)) <= 1e-8


def test_fermi_full_filling_flat_slope():
    config = six_site_scan_config(n_particles=6)
    table, _ = run_fermi(config)
    assert np.abs(table.column("dE0")).max() <= 1e-12
    assert not table.comments


def test_fermi_requires_particle_count():
    with pytest.raises(ValueError, match="--np"):
        run_fermi(six_site_scan_config())


# --- SVG emission ---


def test_fermi_svg_pair_is_wellformed_and_deterministic():
    config = six_site_scan_config(n_particles=2, svg="plot")
    _, first = run_fermi(config)
    _, second = run_fermi(config)
    assert set(first) == {"plot_energy.svg", "plot_slope.svg"}
    assert first == second
    for doc in first.values():
        root = ET.fromstring(doc)
        assert root.tag.endswith("svg")
        assert root.attrib["viewBox"] == "0 0 800 600"
    # cusp markers: two circles on the slope figure
    slope_root = ET.fromstring(first["plot_slope.svg"])
    circles = [el for el in slope_root.iter() if el.tag.endswith("circle")]
    assert len(circles) == 2


# --- check ---


def test_check_six_site_at_crossing_passes(capsys):
    code, text = run_check(six_site_scan_config(), 1.0)
    assert code == 0
    assert "PASS" in text
    slopes = [float(line.split("lhs=")[1].split()[0]) for line in text.splitlines()
              if line.startswith("state")]
    # the rotated crossing cluster reports the two one-sided slopes
    assert sorted(slopes[1:3]) == pytest.approx([-1.0, 1.0 / 3.0], abs=1e-10)


def test_check_tol_deg_flag_controls_clustering():
    # forcing the tolerance below the actual splitting leaves the crossing
    # cluster unrotated, so the raw mixed states fail the slope identity
    code, text = run_check(six_site_scan_config(tol_deg=1e-30), 1.0)
    assert code == 1
    assert "FAIL" in text


def test_check_oscillator_shells_pass():
    config = ScanConfig(model="oscillator", omega=1.0, nmax=12)
    code, text = run_check(config, 0.0)
    assert code == 0


def test_check_fails_on_truncation_error():
    # at this coupling the upper shells of the n_max=12 basis are far from
    # the untruncated closed forms, so the verification must fail loudly
    config = ScanConfig(model="oscillator", omega=1.0, nmax=12)
    code, text = run_check(config, 0.5)
    assert code == 1
    assert "FAIL" in text


# --- classify ---


def test_classify_six_site_listing():
    code, text = run_classify(six_site_scan_config(), 0.5)
    assert code == 0
    labels = [line.split()[2] for line in text.splitlines()]
    assert labels == ["B2", "A1", "A2", "B1", "B2", "A1"]


def test_classify_six_site_after_crossing():
    # branches swap sorted positions above lambda=1 (the closed forms put
    # the B2 branch below B1 there)
    code, text = run_classify(six_site_scan_config(), 1.5)
    assert code == 0
    labels = [line.split()[2] for line in text.splitlines()]
    assert labels == ["B2", "A2", "A1", "B2", "B1", "A1"]


def test_classify_oscillator_ground_state():
    config = ScanConfig(model="oscillator", omega=1.0, nmax=8)
    code, text = run_classify(config, 0.3)
    assert code == 0
    assert text.splitlines()[0].split()[2] == "A1"


def _rep_less_model():
    return ParametricModel(
        a=SymmetricMatrix(np.diag([0.0, 1.0])), b=SymmetricMatrix(np.zeros((2, 2)))
    )


def _mixed_cluster_model():
    # lambda * identity: the degenerate pair has an identity derivative
    # block, so no rotation can unmix the arbitrary eigenvectors
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    rep = GroupRep(name="Z2", labels=("E", "P"), matrices=np.stack([np.eye(2), swap]))
    table = CharacterTable(group_name="Z2", element_order=("E", "P"),
                           rows={"A": (1, 1), "B": (1, -1)})
    return ParametricModel(
        a=SymmetricMatrix(np.zeros((2, 2))),
        b=SymmetricMatrix(np.eye(2)),
        symmetry=rep,
        character_table=table,
        name="iso",
    )


def test_classify_without_rep_is_usage_error(monkeypatch):
    monkeypatch.setattr("hftkit.cli.build_model", lambda *a, **k: _rep_less_model())
    code, text = run_classify(six_site_scan_config(), 0.5)
    assert code == 2
    assert "no symmetry" in text


def test_classify_marks_unresolvable_states_mixed(monkeypatch):
    monkeypatch.setattr("hftkit.cli.build_model", lambda *a, **k: _mixed_cluster_model())
    code, text = run_classify(six_site_scan_config(), 0.5)
    assert code == 0
    labels = [line.split()[2] for line in text.splitlines()]
    assert labels == ["MIXED", "MIXED"]


# --- main and exit codes ---


def test_main_scan_to_file(tmp_path, capsys):
    out = tmp_path / "scan.csv"
    code = main(["scan", "--model", "six-site", "--lmin", "0.2", "--lmax", "2",
                 "--steps", "19", "--slopes", "--out", str(out)])
    assert code == 0
    parsed = CsvTable.parse(out.read_text(encoding="ascii"))
    assert len(parsed.rows) == 19


def test_main_fermi_writes_svg_pair(tmp_path):
    prefix = tmp_path / "fig"
    code = main(["fermi", "--model", "six-site", "--np", "2", "--lmin", "0.2",
                 "--lmax", "2", "--steps", "19", "--out", str(tmp_path / "fermi.csv"),
                 "--svg", str(prefix)])
    assert code == 0
    assert (tmp_path / "fig_energy.svg").exists()
    assert (tmp_path / "fig_slope.svg").exists()


def test_main_crossings_prints_location(capsys):
    code = main(["crossings", "--model", "six-site", "--np", "2",
                 "--lmin", "0.2", "--lmax", "2", "--steps", "50"])
    assert code == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 1
    assert abs(float(out[0]) - 1.0) <= 1e-8


def test_main_models_lists_registry(capsys):
    assert main(["models"]) == 0
    out = capsys.readouterr().out
    assert "six-site" in out and "oscillator" in out


def test_main_check_exit_codes(capsys):
    assert main(["check", "--model", "six-site", "--lambda", "1.0"]) == 0
    capsys.readouterr()
    assert main(["check", "--model", "oscillator", "--nmax", "12", "--lambda", "0.5"]) == 1


def test_main_usage_errors_are_exit_two(capsys):
    assert main(["check", "--model", "nosuch", "--lambda", "1.0"]) == 2
    assert main(["fermi", "--model", "six-site", "--lmin", "0.2", "--lmax", "2"]) == 2
    assert main(["scan", "--model", "six-site", "--lmin", "-1", "--lmax", "2"]) == 2
    assert main([]) == 2


def test_main_domain_violation_is_exit_two(capsys):
    # six-site closed forms need lambda > 0, the grid dips below
    code = main(["classify", "--model", "six-site", "--lambda", "-0.5"])
    assert code == 2


def test_main_tracking_failure_is_exit_one(monkeypatch, capsys):
    from hftkit.spectral import TrackingError

    def always_ambiguous(*args, **kwargs):
        raise TrackingError("best two overlaps are within 1e-06")

    monkeypatch.setattr("hftkit.cli.match_columns", always_ambiguous)
    code = main(["scan", "--model", "six-site", "--lmin", "0.2", "--lmax", "2",
                 "--steps", "5"])
    assert code == 1
    err = capsys.readouterr().err
    assert "ambiguous in [" in err and "--steps" in err


@pytest.mark.parametrize("steps, n_p", [
    # a refinement probe lands on lambda=0, where the oscillator's shells
    # are degenerate
    (10, 2), (10, 4), (10, 5),
    # lambda=0 is a grid end, and a tracked state lies inside a shell that
    # is not at the frontier
    (11, 1), (11, 3), (11, 6),
])
def test_main_crossings_through_the_degenerate_shells_at_zero(steps, n_p, capsys):
    code = main(["crossings", "--model", "oscillator", "--nmax", "8", "--np", str(n_p),
                 "--lmin", "-0.5", "--lmax", "0.5", "--steps", str(steps)])
    out, err = capsys.readouterr()
    assert code == 0 and err == ""
    model = oscillator_model(n_max=8)
    for line in out.splitlines():
        report = cusp_report(model, float(line), FillingSpec(n_p))
        assert report.slope_left >= report.slope_right


@pytest.mark.parametrize("lam", ["0.99995", "-0.99995"])
def test_main_check_near_the_domain_edge_reports(lam, capsys):
    # the difference stencils shrink to stay inside |lambda| < omega^2
    code = main(["check", "--model", "oscillator", "--nmax", "6", "--lambda", lam])
    out, err = capsys.readouterr()
    assert code in (0, 1)
    assert "error:" not in err
    lines = out.splitlines()
    assert lines[0].startswith("model oscillator at lambda=")
    assert sum(line.startswith("state ") for line in lines) == 28
    assert lines[-1].startswith("worst residual")


@pytest.mark.parametrize("flag, value", [
    ("--tol-deg", "nan"), ("--tol-deg", "inf"), ("--fd-step", "nan"), ("--fd-step", "inf"),
])
def test_main_check_rejects_nonfinite_numbers(flag, value, capsys):
    code = main(["check", "--model", "oscillator", "--nmax", "4", "--lambda", "0", flag, value])
    assert code == 2
    assert f"got {value}" in capsys.readouterr().err


@pytest.mark.parametrize("command", [
    ["scan", "--lmin", "0.5", "--lmax", "1.5"],
    ["fermi", "--np", "2", "--lmin", "0.5", "--lmax", "1.5"],
    ["classify", "--lambda", "0.5"],
    ["crossings", "--np", "2", "--lmin", "0.5", "--lmax", "1.5"],
], ids=["scan", "fermi", "classify", "crossings"])
def test_fd_step_is_a_check_option_only(command, capsys):
    code = main(command + ["--model", "six-site", "--fd-step", "nan"])
    assert code == 2
    assert "unrecognized arguments: --fd-step nan" in capsys.readouterr().err


def test_main_check_takes_an_fd_step(capsys):
    code = main(["check", "--model", "six-site", "--lambda", "0.7", "--fd-step", "1e-3"])
    out = capsys.readouterr().out
    assert code == 0
    assert out == run_check(ScanConfig(model="six-site", fd_step=1e-3), 0.7)[1]
    assert out != run_check(ScanConfig(model="six-site"), 0.7)[1]
    assert out.splitlines()[-1].endswith("PASS")


def test_main_fermi_takes_a_negative_exponent_form_bound(capsys):
    argv = ["fermi", "--model", "oscillator", "--nmax", "6", "--np", "2",
            "--lmin", "-0.3", "--lmax", "-7.709443216571965e-05", "--steps", "11"]
    code = main(argv)
    out, err = capsys.readouterr()
    assert code in (0, 1)
    assert "error" not in err
    table, _ = run_fermi(ScanConfig(model="oscillator", nmax=6, n_particles=2, lam_lo=-0.3,
                                    lam_hi=-7.709443216571965e-05, steps=11))
    assert out == table.render()
    assert len(CsvTable.parse(out).rows) == 11


def test_main_check_takes_a_negative_exponent_form_lambda(capsys):
    code = main(["check", "--model", "oscillator", "--lambda", "-1e-3"])
    out, err = capsys.readouterr()
    assert code in (0, 1)
    assert "error" not in err
    assert (code, out) == run_check(ScanConfig(model="oscillator"), -1e-3)
    lines = out.splitlines()
    assert lines[0] == "model oscillator at lambda=-0.001"
    assert sum(line.startswith("state ") for line in lines) == 91
    assert lines[-1].startswith("worst residual")


def test_main_still_rejects_a_dash_word_as_a_value(capsys):
    assert main(["check", "--model", "oscillator", "--lambda", "-x"]) == 2
    assert "expected one argument" in capsys.readouterr().err
