"""CSV/SVG emission, subcommand behavior, exit codes."""

import math
import re
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
from hftkit.svgplot import line_plot
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
    # One row format for the whole row is the same formatter as _fmt, also
    # for signed zero, infinities, nan, subnormals and the switch to
    # exponent form; rows may be lists and hold ints or float32s.
    rows = [
        (-0.0, float("inf"), float("-inf")),
        (float("nan"), 5e-324, 1e16),
        [1e17, 3, np.float32(0.1)],
    ]
    edge = CsvTable(header=("a", "b", "c"), rows=rows)
    edge.append([-7, np.float32(-2.5e-39), 1e-5])
    rows.append([-7, np.float32(-2.5e-39), 1e-5])
    assert edge.render().splitlines()[1:] == [
        ",".join(format(float(v), ".17g") for v in row) for row in rows
    ]


def test_csv_parse_skips_blank_lines_and_keeps_comments_in_order():
    text = "\n# first\nx,y\n\n1,2\n   \n# second\n3,4\n"
    table = CsvTable.parse(text)
    assert table.header == ("x", "y")
    assert table.rows == [(1.0, 2.0), (3.0, 4.0)]
    assert table.comments == ["# first", "# second"]
    with pytest.raises(ValueError, match="no header line found"):
        CsvTable.parse("\n# only a comment\n\n")


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


# Two oscillator scans and the number of grid steps whose match_columns
# call still forms the full overlap product: a Hellmann-Feynman-predicted
# guess settles all 40 steps of the first, and all but the two steps next
# to the degenerate shells at lambda = 0 of the second.
FULL_PRODUCT_STEPS = [
    ("--nmax 20 --lmin 0.1 --lmax 0.3 --steps 41 --slopes", 0),
    ("--nmax 12 --lmin -0.9 --lmax 0.9 --steps 101 --slopes", 2),
]


@pytest.mark.parametrize("flags, full", FULL_PRODUCT_STEPS)
def test_scan_forms_the_full_overlap_product_only_where_the_guess_fails(
    flags, full, monkeypatch, capsys
):
    from hftkit import spectral

    argv = ["scan", "--model", "oscillator", *flags.split()]
    calls = []
    original = spectral._overlap_match
    monkeypatch.setattr(spectral, "_overlap_match",
                        lambda *args: calls.append(1) or original(*args))
    assert main(argv) == 0
    guessed = capsys.readouterr().out
    assert len(calls) == full
    # without the guess every step forms the product, and prints the same bytes
    calls.clear()
    monkeypatch.setattr("hftkit.cli._PREDICTED_MATCH_MIN_DIM", math.inf)
    assert main(argv) == 0
    assert capsys.readouterr().out == guessed
    assert len(calls) == int(flags.split("--steps ")[1].split()[0]) - 1


# --- golden scan output ---

# The full stdout of three scans: a dyadic six-site grid through the crossing
# at lambda = 1, tracked and sorted, and the oscillator through its
# degenerate shells at lambda = 0.  Byte equality pins the branch
# permutation, the signs and every slope digit.  The bytes are those of
# numpy 2.4.6 with its bundled OpenBLAS 0.3.31; another LAPACK build may
# round the last digits differently.
GOLDEN_SCANS = {
    "scan --model six-site --lmin 0.984375 --lmax 1.015625 --steps 9 --slopes": (
        "lambda,e0,e1,e2,e3,e4,e5,slope0,slope1,slope2,slope3,slope4,slope5\n"
        "0.984375,-1.9896014491657774,-1.0052264491657774,-0.984375,0.98437500000000022,"
        "1.005226449165777,1.9896014491657767,-0.66434583779395218,0.33565416220604805,-1,"
        "0.99999999999999978,-0.33565416220604838,0.66434583779395229\n"
        "0.98828125,-1.9921976857541592,-1.003916435754159,-0.98828125000000011,0.98828125,"
        "1.0039164357541592,1.9921976857541592,-0.66492717064837259,0.33507282935162785,-1,"
        "0.99999999999999911,-0.33507282935162774,0.66492717064837192\n"
        "0.9921875,-1.9947961917105157,-1.0026086917105168,-0.99218750000000044,0.9921875,"
        "1.0026086917105161,1.9947961917105168,-0.66550775397209327,0.33449224602790661,"
        "-1.0000000000000004,0.99999999999999911,-0.33449224602790606,0.6655077539720935\n"
        "0.99609375,-1.9973969641043641,-1.0013032141043641,-0.99609374999999956,"
        "0.99609374999999956,1.0013032141043645,1.9973969641043636,-0.66608758642136323,"
        "0.33391241357863632,-0.99999999999999978,1.0000000000000007,-0.33391241357863688,"
        "0.66608758642136423\n"
        "1,-1.9999999999999996,-0.99999999999999989,-1.0000000000000002,1,0.99999999999999989,"
        "1.9999999999999998,-0.66666666666666696,0.33333333333333326,-1,1.0000000000000002,"
        "-0.33333333333333343,0.66666666666666685\n"
        "1.00390625,-2.0026052964565526,-0.99869904645655194,-1.0039062500000002,"
        "1.0039062500000002,0.99869904645655216,2.0026052964565517,-0.66724499339270604,"
        "0.33275500660729462,-0.99999999999999978,1.0000000000000009,-0.33275500660729479,"
        "0.66724499339270582\n"
        "1.0078125,-2.0052128505280407,-0.99740035052804144,-1.0078125,1.0078124999999996,"
        "0.99740035052804121,2.0052128505280411,-0.66782256529837691,0.33217743470162425,-1,"
        "0.99999999999999956,-0.3321774347016242,0.66782256529837636\n"
        "1.01171875,-2.007822659263431,-0.99610390926343018,-1.01171875,1.0117187500000002,"
        "0.99610390926343062,2.0078226592634296,-0.66839938109674746,0.33160061890325238,"
        "-0.99999999999999989,0.99999999999999933,-0.33160061890325243,0.66839938109674712\n"
        "1.015625,-2.0104347197066863,-0.99480971970668575,-1.0156249999999998,"
        "1.0156249999999998,0.9948097197066863,2.0104347197066859,-0.66897543951503802,"
        "0.33102456048496165,-0.99999999999999933,1,-0.33102456048496176,0.66897543951503857\n"
    ),
    "scan --model six-site --lmin 0.984375 --lmax 1.015625 --steps 9 --slopes --sorted": (
        "lambda,e0,e1,e2,e3,e4,e5,slope0,slope1,slope2,slope3,slope4,slope5\n"
        "0.984375,-1.9896014491657774,-1.0052264491657774,-0.984375,0.98437500000000022,"
        "1.005226449165777,1.9896014491657767,-0.66434583779395218,0.33565416220604805,-1,"
        "0.99999999999999978,-0.33565416220604838,0.66434583779395229\n"
        "0.98828125,-1.9921976857541592,-1.003916435754159,-0.98828125000000011,0.98828125,"
        "1.0039164357541592,1.9921976857541592,-0.66492717064837259,0.33507282935162785,-1,"
        "0.99999999999999911,-0.33507282935162774,0.66492717064837192\n"
        "0.9921875,-1.9947961917105157,-1.0026086917105168,-0.99218750000000044,0.9921875,"
        "1.0026086917105161,1.9947961917105168,-0.66550775397209327,0.33449224602790661,"
        "-1.0000000000000004,0.99999999999999911,-0.33449224602790606,0.6655077539720935\n"
        "0.99609375,-1.9973969641043641,-1.0013032141043641,-0.99609374999999956,"
        "0.99609374999999956,1.0013032141043645,1.9973969641043636,-0.66608758642136323,"
        "0.33391241357863632,-0.99999999999999978,1.0000000000000007,-0.33391241357863688,"
        "0.66608758642136423\n"
        "1,-1.9999999999999996,-1.0000000000000002,-0.99999999999999989,0.99999999999999989,1,"
        "1.9999999999999998,-0.66666666666666696,-1,0.33333333333333326,-0.33333333333333343,"
        "1.0000000000000002,0.66666666666666685\n"
        "1.00390625,-2.0026052964565526,-1.0039062500000002,-0.99869904645655194,"
        "0.99869904645655216,1.0039062500000002,2.0026052964565517,-0.66724499339270604,"
        "-0.99999999999999978,0.33275500660729462,-0.33275500660729479,1.0000000000000009,"
        "0.66724499339270582\n"
        "1.0078125,-2.0052128505280407,-1.0078125,-0.99740035052804144,0.99740035052804121,"
        "1.0078124999999996,2.0052128505280411,-0.66782256529837691,-1,0.33217743470162425,"
        "-0.3321774347016242,0.99999999999999956,0.66782256529837636\n"
        "1.01171875,-2.007822659263431,-1.01171875,-0.99610390926343018,0.99610390926343062,"
        "1.0117187500000002,2.0078226592634296,-0.66839938109674746,-0.99999999999999989,"
        "0.33160061890325238,-0.33160061890325243,0.99999999999999933,0.66839938109674712\n"
        "1.015625,-2.0104347197066863,-1.0156249999999998,-0.99480971970668575,"
        "0.9948097197066863,1.0156249999999998,2.0104347197066859,-0.66897543951503802,"
        "-0.99999999999999933,0.33102456048496165,-0.33102456048496176,1,0.66897543951503857\n"
    ),
    "scan --model oscillator --nmax 4 --lmin -0.25 --lmax 0.25 --steps 5 --slopes": (
        "lambda,e0,e1,e2,e3,e4,e5,e6,e7,e8,e9,e10,e11,e12,e13,e14,slope0,slope1,slope2,slope3,"
        "slope4,slope5,slope6,slope7,slope8,slope9,slope10,slope11,slope12,slope13,slope14\n"
        "-0.25,0.99203012478553676,1.8582872158176842,2.1102243842752446,2.7246900036709092,"
        "2.9764759006198735,3.2284615625737145,3.63817290209025,3.8793363715189821,"
        "4.128539882092066,4.385439244205771,4.5261827132024415,4.7629413033665093,"
        "5.0078389031621882,5.2605827960136144,5.5207966926052094,0.065057434590696198,"
        "0.63844064081482355,-0.38467228836666267,1.2092700250574244,0.18884640411802167,"
        "-0.83490272694341094,1.3885279471056566,0.46344973135889361,-0.52696858792047618,"
        "-1.5787774429922332,1.7798606046806482,0.89151453956095539,-0.06292004700909061,"
        "-1.0803609436789774,-2.1563652903762685\n"
        "-0.125,0.99803726508384538,1.9334643362339452,2.0587079944676439,2.868898786653137,"
        "2.9941349809815265,3.1193828856290868,3.8156067446818946,3.9385281972882948,"
        "4.0634289190841608,4.1902638082440644,4.7562047881360323,4.8780809451338047,"
        "5.0019547892557989,5.1277840738846638,5.2555214852420944,0.031558696614008598,"
        "0.56566198772105236,-0.44017800330340207,1.0995155364602334,0.093929363438855093,"
        "-0.91203576760154448,1.4488347533135917,0.48311905181003928,-0.51449674103464382,"
        "-1.5429410485066382,1.8979594865388818,0.94947828682704938,-0.031303181348828479,"
        "-1.043407650265904,-2.0856947706627493\n"
        "0,1,2,2,3,3,3,4,4,4,4,5,5,5,5,5,0,0.50000000000000011,-0.50000000000000011,"
        "1.0000000000000004,-9.1940344226770776e-17,-1.0000000000000002,1.5000000000000002,"
        "0.49999999999999983,-0.49999999999999994,-1.5000000000000002,2,1,"
        "-1.6585083620570208e-16,-1.0000000000000002,-2\n"
        "0.125,0.99803726508384538,2.0587079944676447,1.9334643362339456,3.1193828856290868,"
        "2.9941349809815256,2.8688987866531375,4.1902638082440644,4.0634289190841644,"
        "3.9385281972882975,3.8156067446818942,5.2555214852420944,5.1277840738846665,"
        "5.0019547892557981,4.8780809451338074,4.7562047881360314,-0.031558696614008612,"
        "0.4401780033034019,-0.56566198772105269,0.91203576760154514,-0.093929363438855162,"
        "-1.0995155364602334,1.5429410485066335,0.51449674103464338,-0.48311905181003745,"
        "-1.448834753313591,2.0856947706627493,1.0434076502659029,0.031303181348828563,"
        "-0.94947828682704705,-1.8979594865388816\n"
        "0.25,0.99203012478553676,2.1102243842752442,1.8582872158176844,3.228461562573715,"
        "2.9764759006198735,2.7246900036709096,4.3854392442057701,4.128539882092066,"
        "3.8793363715189848,3.6381729020902482,5.5207966926052094,5.2605827960136189,"
        "5.0078389031621882,4.7629413033665076,4.5261827132024424,-0.065057434590696198,"
        "0.38467228836666395,-0.63844064081482388,0.83490272694341106,-0.18884640411802162,"
        "-1.2092700250574251,1.5787774429922306,0.52696858792047685,-0.46344973135889433,"
        "-1.3885279471056542,2.1563652903762693,1.0803609436789765,0.06292004700909061,"
        "-0.89151453956095605,-1.7798606046806478\n"
    ),
}


@pytest.mark.parametrize("argv", list(GOLDEN_SCANS))
def test_scan_stdout_is_byte_identical_to_the_golden_output(argv, capsys):
    assert main(argv.split()) == 0
    assert capsys.readouterr() == (GOLDEN_SCANS[argv], "")


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


def test_line_plot_draws_a_flat_curve_and_needs_two_samples():
    doc = line_plot([0.0, 1.0, 2.0], [3.0, 3.0, 3.0])
    root = ET.fromstring(doc)
    (polyline,) = [el for el in root.iter() if el.tag.endswith("polyline")]
    ys = {point.split(",")[1] for point in polyline.attrib["points"].split()}
    assert ys == {"290.00"}  # halfway between the plot frame's top (40) and bottom (540)
    for xs, ys in (([0.0], [1.0]), ([], []), ([0.0, 1.0], [1.0])):
        with pytest.raises(ValueError, match="need two or more"):
            line_plot(xs, ys)


# --- golden fermi output ---

# The full stdout of fermi with a six-site cusp on a grid point (read from
# the sweep) and an oscillator cusp refined between grid points: the energy
# and slope columns and each cusp's one-sided slopes, digit for digit
# (numpy 2.4.6, OpenBLAS 0.3.31).
GOLDEN_FERMIS = {
    "fermi --model six-site --np 2 --lmin 0.2 --lmax 2 --steps 19": (
        "lambda,E0,dE0\n"
        "0.20000000000000001,-2.8354893757515658,-0.070534561585859634\n"
        "0.30000000000000004,-2.8442925306655784,-0.10547438309019452\n"
        "0.40000000000000002,-2.8565713714171395,-0.14002800840280061\n"
        "0.5,-2.8722813232690148,-0.17407765595569724\n"
        "0.60000000000000009,-2.8913664589601913,-0.20751433915982231\n"
        "0.69999999999999996,-2.9137604568666937,-0.24023937806910267\n"
        "0.80000000000000004,-2.9393876913398134,-0.27216552697590835\n"
        "0.90000000000000013,-2.9681644159311675,-0.30321770423814376\n"
        "1,-3,-0.3333333333333337\n"
        "1.1000000000000001,-3.1673990905493525,-1.6812311617377076\n"
        "1.2,-3.3362291495737213,-1.6952833664712348\n"
        "1.3,-3.5064382416273379,-1.7088100840160507\n"
        "1.4000000000000001,-3.6779733838059507,-1.7218034876835673\n"
        "1.5,-3.8507810593582117,-1.734260642832909\n"
        "1.6000000000000001,-4.0248076809271911,-1.7461829819586645\n"
        "1.7,-4.2000000000000002,-1.7575757575757567\n"
        "1.8,-4.3763054614240193,-1.7684474938223524\n"
        "1.9000000000000001,-4.5536725037400849,-1.7788094536697807\n"
        "2,-4.7320508075688767,-1.7886751345948126\n"
        "# cusp,1,-0.3333333333333337,-1.666666666666667\n"
    ),
    "fermi --model oscillator --nmax 6 --np 3 --lmin 0.1 --lmax 0.7 --steps 15": (
        "lambda,E0,dE0\n"
        "0.10000000000000001,4.9937303776054183,-0.12578672517003731\n"
        "0.14285714285714285,4.9871627740516278,-0.18088186339671125\n"
        "0.18571428571428572,4.978207772192075,-0.23726932485150909\n"
        "0.22857142857142856,4.9668006331726673,-0.29539222703387014\n"
        "0.27142857142857146,4.9528566868299766,-0.35573972784019681\n"
        "0.31428571428571428,4.936269070047075,-0.41886079053895198\n"
        "0.3571428571428571,4.9169058332787943,-0.48537997535476135\n"
        "0.40000000000000002,4.8946063191474449,-0.55601569120765337\n"
        "0.44285714285714284,4.8691766981675482,-0.63160135349084245\n"
        "0.48571428571428577,4.840384527120154,-0.71310991859808626\n"
        "0.52857142857142858,4.8079521738882409,-0.80168235643118757\n"
        "0.5714285714285714,4.7715489233347084,-0.89866091655594582\n"
        "0.61428571428571421,4.7066466519436236,-2.9535969748547055\n"
        "0.65714285714285714,4.5763551742911002,-3.1289875105887495\n"
        "0.69999999999999996,4.4382488304876411,-3.3182823152338821\n"
        "# cusp,0.60184429884956503,-0.97344314717634028,-2.9052685501437612\n"
    ),
}


@pytest.mark.parametrize("argv", list(GOLDEN_FERMIS))
def test_fermi_stdout_is_byte_identical_to_the_golden_output(argv, capsys):
    assert main(argv.split()) == 0
    assert capsys.readouterr() == (GOLDEN_FERMIS[argv], "")


# --- the scan and fermi goldens against independent references ---

# The goldens pin bytes, which cannot tell a rounding change from a wrong
# answer.  These tests read the same bytes and check them against numbers
# computed here without hftkit: the six-site closed forms, and numpy's eigh
# of the oscillator matrix built from its matrix elements.
#   GOLDEN_TOL: eigenvalues, E0 and Hellmann-Feynman slopes, relative to
#     1 + |reference|; LAPACK rounding is about 1e-15.
#   CUSP_TOL: cusp slopes against one-sided differences of E0 with step
#     1e-3, whose truncation error is O(1e-9) and whose error from a cusp
#     placed 1e-10 off is O(1e-7).
#   GAP_TOL: the frontier gap at a reported cusp, which is placed within
#     1e-10 of the crossing of two levels whose slopes differ by about 2.
GOLDEN_TOL = 1e-12
CUSP_TOL = 1e-6
GAP_TOL = 1e-9


def _golden_options(argv):
    """The options of a golden command line: value options as strings,
    flags as True."""
    words = argv.split()
    options = {}
    for k, word in enumerate(words):
        if word.startswith("--"):
            value = words[k + 1] if k + 1 < len(words) else "--"
            options[word[2:]] = True if value.startswith("--") else value
    return options


def _golden_grid(options):
    return np.linspace(float(options["lmin"]), float(options["lmax"]), int(options["steps"]))


def _parse_golden(text):
    """The header, the numeric rows and the comment lines of a golden CSV."""
    lines = text.splitlines()
    rows = [[float(v) for v in line.split(",")] for line in lines[1:] if line[0] != "#"]
    return lines[0].split(","), np.array(rows), [line for line in lines if line[0] == "#"]


def _six_site_branches(lam):
    """The six closed-form levels of the six-site model and their slopes,
    in branch order; with s = sqrt(lam^2 + 8) they are -(lam+s)/2,
    (lam-s)/2, -lam, lam, (s-lam)/2 and (lam+s)/2."""
    s = math.sqrt(lam * lam + 8.0)
    r = lam / s
    values = [-(lam + s) / 2.0, (lam - s) / 2.0, -lam, lam, (s - lam) / 2.0, (lam + s) / 2.0]
    slopes = [-(1.0 + r) / 2.0, (1.0 - r) / 2.0, -1.0, 1.0, (r - 1.0) / 2.0, (1.0 + r) / 2.0]
    return np.array(values), np.array(slopes)


def _oscillator_matrices(nmax, omega=1.0):
    """H0 and the x*y coupling in the product basis |m, n>, m + n <= nmax,
    ordered by shell m + n and by m inside a shell: H0 = omega (m + n + 1),
    and <m, n|xy|m', n'> = <m|x|m'> <n|y|n'> with
    <a|x|a +- 1> = sqrt(max(a, a +- 1) / (2 omega))."""
    basis = [(m, nu - m) for nu in range(nmax + 1) for m in range(nu + 1)]
    index = {state: i for i, state in enumerate(basis)}
    h0 = np.diag([omega * (m + n + 1.0) for m, n in basis])
    xy = np.zeros_like(h0)
    for i, (m, n) in enumerate(basis):
        for dm in (-1, 1):
            for dn in (-1, 1):
                j = index.get((m + dm, n + dn))
                if j is not None:
                    xy[i, j] = (math.sqrt(max(m, m + dm) / (2.0 * omega))
                                * math.sqrt(max(n, n + dn) / (2.0 * omega)))
    return h0, xy


def _cluster_cuts(w):
    """Bounds of the clusters of ascending levels w: runs of levels closer
    than 1e-8 (1 + max |E|)."""
    tol = 1e-8 * (1.0 + np.abs(w).max())
    return [0, *(k for k in range(1, len(w)) if w[k] - w[k - 1] > tol), len(w)]


def _rotated_states(h0, dh, lam):
    """Ascending eigenvalues of h0 + lam * dh, their eigenvectors with the dh
    block of every cluster diagonalized, and the Hellmann-Feynman slopes
    <v|dh|v> (block eigenvalues, ascending inside a cluster)."""
    w, v = np.linalg.eigh(h0 + lam * dh)
    block = v.T @ dh @ v
    slopes = np.diag(block).copy()
    cuts = _cluster_cuts(w)
    for a, z in zip(cuts[:-1], cuts[1:]):
        slopes[a:z], rotation = np.linalg.eigh(block[a:z, a:z])
        v[:, a:z] = v[:, a:z] @ rotation
    return w, v, slopes


def _oscillator_levels(matrices, lam):
    """Ascending eigenvalues of H0 + lam * xy and their Hellmann-Feynman
    slopes."""
    w, _, slopes = _rotated_states(*matrices, lam)
    return w, slopes


def _reference_levels(options):
    """lambda -> (levels, slopes) of the golden's model."""
    if options["model"] == "six-site":
        return _six_site_branches
    matrices = _oscillator_matrices(int(options["nmax"]))
    return lambda lam: _oscillator_levels(matrices, lam)


def _assert_close(got, want, tol, what):
    assert abs(got - want) <= tol * (1.0 + abs(want)), f"{what}: {got!r} against {want!r}"


def _match_levels(values, slopes, ref_values, ref_slopes, what):
    """The reference level of each output column: the nearest (value, slope)
    pair not yet taken.  Every column must agree with its pair."""
    free = list(range(len(ref_values)))
    picks = []
    for k, (e, s) in enumerate(zip(values, slopes)):
        j = min(free, key=lambda j: abs(ref_values[j] - e) + abs(ref_slopes[j] - s))
        free.remove(j)
        _assert_close(e, ref_values[j], GOLDEN_TOL, f"{what} e{k}")
        _assert_close(s, ref_slopes[j], GOLDEN_TOL, f"{what} slope{k}")
        picks.append(j)
    return picks


@pytest.mark.parametrize("argv", list(GOLDEN_SCANS))
def test_scan_golden_agrees_with_an_independent_reference(argv):
    options = _golden_options(argv)
    header, data, _ = _parse_golden(GOLDEN_SCANS[argv])
    d = (len(header) - 1) // 2
    assert data[:, 0].tobytes() == _golden_grid(options).tobytes()
    levels = _reference_levels(options)
    picks = []
    for lam, *row in data:
        values, slopes = row[:d], row[d:]
        picks.append(_match_levels(values, slopes, *levels(lam), f"lambda={lam!r}"))
        if options.get("sorted"):
            assert values == sorted(values)
    if options["model"] == "six-site" and not options.get("sorted"):
        # the tracked columns follow the closed-form branches throughout
        assert all(p == picks[0] for p in picks)


def _one_sided(f, x, side, h=1e-3):
    """One-sided derivative of f at x from f(x), f(x + side h/2),
    f(x + side h) and f(x + 2 side h): the three-point formula at steps
    h/2 and h, combined by one Richardson step."""
    def three_point(step):
        return side * (-3.0 * f(x) + 4.0 * f(x + side * step) - f(x + 2.0 * side * step)) / (
            2.0 * step)

    return (4.0 * three_point(h / 2.0) - three_point(h)) / 3.0


@pytest.mark.parametrize("argv", list(GOLDEN_FERMIS))
def test_fermi_golden_agrees_with_an_independent_reference(argv):
    options = _golden_options(argv)
    p = int(options["np"])
    _, data, comments = _parse_golden(GOLDEN_FERMIS[argv])
    assert data[:, 0].tobytes() == _golden_grid(options).tobytes()
    levels = _reference_levels(options)

    def e0(lam):
        return float(np.sum(np.sort(levels(lam)[0])[:p]))

    for lam, energy, slope in data:
        _assert_close(energy, e0(lam), GOLDEN_TOL, f"E0 at lambda={lam!r}")
        if options["model"] == "six-site":
            # two fermions: E0 = -s up to the crossing at 1, -(3 lam + s)/2
            # after it, so the left slope is -lam/s, or -(3 + lam/s)/2
            s = math.sqrt(lam * lam + 8.0)
            want = -lam / s if lam <= 1.0 else -(3.0 + lam / s) / 2.0
        else:
            w, slopes = levels(lam)
            assert w[p] - w[p - 1] > GAP_TOL  # no grid point of this golden is a cusp
            want = float(np.sum(slopes[:p]))
        _assert_close(slope, want, GOLDEN_TOL, f"dE0 at lambda={lam!r}")

    assert comments and all(c.startswith("# cusp,") for c in comments)
    for line in comments:
        lam0, left, right = (float(v) for v in line.split(",")[1:])
        w = np.sort(levels(lam0)[0])
        assert w[p] - w[p - 1] <= GAP_TOL
        _assert_close(left, _one_sided(e0, lam0, -1), CUSP_TOL, f"left slope at {lam0!r}")
        _assert_close(right, _one_sided(e0, lam0, +1), CUSP_TOL, f"right slope at {lam0!r}")


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


def test_check_reports_each_boundary_warning_before_the_verdict():
    # a tolerance of 0.2 against gaps of 1 and 2 puts every cluster
    # boundary of the six-site spectrum at 1.0 within 10x of it
    code, text = run_check(six_site_scan_config(tol_deg=0.2), 1.0)
    lines = text.splitlines()
    assert code == 0 and len(lines) == 1 + 6 + 6 + 1  # title, states, warnings, verdict
    assert all(line.startswith("warning: cluster boundary ") for line in lines[7:13])
    assert lines[13].endswith(": PASS")


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


# --- golden check output ---

# The full stdout of check through the six-site crossing and through the
# degenerate oscillator shells at lambda = 0: the rotated cluster slopes and
# their oracle references, digit for digit (numpy 2.4.6, OpenBLAS 0.3.31).
GOLDEN_CHECKS = {
    "check --model six-site --lambda 1.0": (
        "model six-site at lambda=1\n"
        "state   0: lhs=-6.666666666667e-01 reference=-6.666666666644e-01 residual=2.294e-12\n"
        "state   1: lhs=-1.000000000000e+00 reference=-1.000000000006e+00 residual=5.811e-12\n"
        "state   2: lhs= 3.333333333333e-01 reference= 3.333333333359e-01 residual=2.554e-12\n"
        "state   3: lhs=-3.333333333333e-01 reference=-3.333333333359e-01 residual=2.554e-12\n"
        "state   4: lhs= 1.000000000000e+00 reference= 1.000000000006e+00 residual=5.811e-12\n"
        "state   5: lhs= 6.666666666667e-01 reference= 6.666666666644e-01 residual=2.294e-12\n"
        "worst residual 5.811e-12 <= threshold 1e-06: PASS\n"
    ),
    "check --model oscillator --nmax 8 --lambda 0": (
        "model oscillator at lambda=0\n"
        "state   0: lhs= 0.000000000000e+00 reference= 0.000000000000e+00 residual=0.000e+00\n"
        "state   1: lhs=-5.000000000000e-01 reference=-5.000000000096e-01 residual=9.567e-12\n"
        "state   2: lhs= 5.000000000000e-01 reference= 5.000000000077e-01 residual=7.716e-12\n"
        "state   3: lhs=-1.000000000000e+00 reference=-9.999999999991e-01 residual=8.505e-13\n"
        "state   4: lhs=-9.194034422677e-17 reference= 1.332267629550e-11 residual=1.332e-11\n"
        "state   5: lhs= 1.000000000000e+00 reference= 9.999999999940e-01 residual=6.032e-12\n"
        "state   6: lhs=-1.500000000000e+00 reference=-1.500000000002e+00 residual=2.425e-12\n"
        "state   7: lhs=-5.000000000000e-01 reference=-4.999999999900e-01 residual=1.005e-11\n"
        "state   8: lhs= 5.000000000000e-01 reference= 5.000000000003e-01 residual=3.151e-13\n"
        "state   9: lhs= 1.500000000000e+00 reference= 1.500000000031e+00 residual=3.055e-11\n"
        "state  10: lhs=-2.000000000000e+00 reference=-2.000000000004e+00 residual=4.221e-12\n"
        "state  11: lhs=-1.000000000000e+00 reference=-9.999999999740e-01 residual=2.602e-11\n"
        "state  12: lhs=-1.658508362057e-16 reference= 2.072416312634e-11 residual=2.072e-11\n"
        "state  13: lhs= 1.000000000000e+00 reference= 1.000000000051e+00 residual=5.096e-11\n"
        "state  14: lhs= 2.000000000000e+00 reference= 2.000000000018e+00 residual=1.754e-11\n"
        "state  15: lhs=-2.500000000000e+00 reference=-2.500000000013e+00 residual=1.342e-11\n"
        "state  16: lhs=-1.500000000000e+00 reference=-1.500000000001e+00 residual=9.450e-13\n"
        "state  17: lhs=-5.000000000000e-01 reference=-4.999999999870e-01 residual=1.301e-11\n"
        "state  18: lhs= 5.000000000000e-01 reference= 5.000000000418e-01 residual=4.176e-11\n"
        "state  19: lhs= 1.500000000000e+00 reference= 1.500000000038e+00 residual=3.795e-11\n"
        "state  20: lhs= 2.500000000000e+00 reference= 2.500000000021e+00 residual=2.082e-11\n"
        "state  21: lhs=-3.000000000000e+00 reference=-3.000000000040e+00 residual=4.038e-11\n"
        "state  22: lhs=-2.000000000000e+00 reference=-2.000000000010e+00 residual=1.014e-11\n"
        "state  23: lhs=-1.000000000000e+00 reference=-1.000000000014e+00 residual=1.395e-11\n"
        "state  24: lhs=-3.076013031361e-16 reference= 1.480297366167e-11 residual=1.480e-11\n"
        "state  25: lhs= 1.000000000000e+00 reference= 1.000000000029e+00 residual=2.876e-11\n"
        "state  26: lhs= 2.000000000000e+00 reference= 2.000000000041e+00 residual=4.123e-11\n"
        "state  27: lhs= 3.000000000000e+00 reference= 3.000000000055e+00 residual=5.518e-11\n"
        "state  28: lhs=-3.500000000000e+00 reference=-3.500000000020e+00 residual=1.997e-11\n"
        "state  29: lhs=-2.500000000000e+00 reference=-2.500000000037e+00 residual=3.710e-11\n"
        "state  30: lhs=-1.500000000000e+00 reference=-1.500000000023e+00 residual=2.315e-11\n"
        "state  31: lhs=-5.000000000000e-01 reference=-4.999999999633e-01 residual=3.669e-11\n"
        "state  32: lhs= 5.000000000000e-01 reference= 5.000000000196e-01 residual=1.956e-11\n"
        "state  33: lhs= 1.500000000000e+00 reference= 1.500000000014e+00 residual=1.427e-11\n"
        "state  34: lhs= 2.500000000000e+00 reference= 2.500000000012e+00 residual=1.194e-11\n"
        "state  35: lhs= 3.500000000000e+00 reference= 3.500000000039e+00 residual=3.921e-11\n"
        "state  36: lhs=-4.000000000000e+00 reference=-3.999999999982e+00 residual=1.820e-11\n"
        "state  37: lhs=-3.000000000000e+00 reference=-2.999999999987e+00 residual=1.291e-11\n"
        "state  38: lhs=-2.000000000000e+00 reference=-2.000000000049e+00 residual=4.863e-11\n"
        "state  39: lhs=-1.000000000000e+00 reference=-9.999999999266e-01 residual=7.339e-11\n"
        "state  40: lhs=-1.591580710563e-16 reference= 7.105427357601e-11 residual=7.105e-11\n"
        "state  41: lhs= 1.000000000000e+00 reference= 1.000000000007e+00 residual=6.551e-12\n"
        "state  42: lhs= 2.000000000000e+00 reference= 2.000000000096e+00 residual=9.600e-11\n"
        "state  43: lhs= 3.000000000000e+00 reference= 3.000000000031e+00 residual=3.150e-11\n"
        "state  44: lhs= 4.000000000000e+00 reference= 4.000000000062e+00 residual=6.173e-11\n"
        "worst residual 9.600e-11 <= threshold 1e-06: PASS\n"
    ),
}


@pytest.mark.parametrize("argv", list(GOLDEN_CHECKS))
def test_check_stdout_is_byte_identical_to_the_golden_output(argv, capsys):
    assert main(argv.split()) == 0
    assert capsys.readouterr() == (GOLDEN_CHECKS[argv], "")


# --- the check golden against closed forms and an independent eigh ---

# check prints, per state, the rotated slope (lhs), its oracle reference
# (difference quotients of the closed-form levels) and their residual.
#   lhs: eigh of the oscillator matrix built above, or the six-site closed
#     forms, within GOLDEN_TOL (the printed 13 digits round by <= 5e-13).
#   reference: the closed-form slope within FD_TOL wherever no level
#     outside the state's cluster comes within four difference steps;
#     difference quotients at step FD_STEP of levels up to ~10 round by
#     about 2e-11, and the Richardson weights multiply that by up to ~5.
#   residual: |lhs - reference| of the printed numbers, within the printed
#     rounding of all three (5e-13 |x| for lhs and reference, 5e-4 relative
#     for the residual).
FD_STEP = 1e-4  # check's default --fd-step
FD_TOL = 2e-10
CHECK_THRESHOLD = 1e-6
_STATE_LINE = re.compile(r"state +(\d+): lhs= ?(\S+) reference= ?(\S+) residual=(\S+)")
_VERDICT_LINE = re.compile(r"worst residual (\S+) (<=|>) threshold (\S+): (PASS|FAIL)")


def _closed_form_levels(options, lam):
    """The closed-form levels of the golden's model in ascending order, and
    their slopes, ascending inside each cluster.  The oscillator's are
    E = (m + 1/2) sqrt(1 + lam) + (n + 1/2) sqrt(1 - lam) over m + n <= nmax
    (omega = 1), with slope (2m + 1) / (4 sqrt(1 + lam)) - (2n + 1) / (4 sqrt(1 - lam))."""
    if options["model"] == "six-site":
        values, slopes = _six_site_branches(lam)
    else:
        nmax = int(options["nmax"])
        m, n = np.array([(m, nu - m) for nu in range(nmax + 1) for m in range(nu + 1)]).T
        k1, k2 = math.sqrt(1.0 + lam), math.sqrt(1.0 - lam)
        values = (m + 0.5) * k1 + (n + 0.5) * k2
        slopes = (2 * m + 1) / (4.0 * k1) - (2 * n + 1) / (4.0 * k2)
    order = np.argsort(values, kind="stable")
    values, slopes = values[order], slopes[order]
    cuts = _cluster_cuts(values)
    for a, z in zip(cuts[:-1], cuts[1:]):
        slopes[a:z] = np.sort(slopes[a:z])
    return values, slopes, cuts


def _isolated(values, slopes, cuts, k, reach):
    """No level outside state k's cluster meets its tangent within reach of
    lambda: |E_j - E_k| > reach |s_j - s_k| for every such level j."""
    a = max(c for c in cuts if c <= k)
    z = min(c for c in cuts if c > k)
    outside = np.r_[0:a, z:len(values)]
    return bool(np.all(np.abs(values[outside] - values[k])
                       > reach * np.abs(slopes[outside] - slopes[k])))


@pytest.mark.parametrize("argv", list(GOLDEN_CHECKS))
def test_check_golden_agrees_with_an_independent_reference(argv):
    options = _golden_options(argv)
    lam = float(options["lambda"])
    lines = GOLDEN_CHECKS[argv].splitlines()
    states = [_STATE_LINE.fullmatch(line) for line in lines[1:-1]]
    assert lines[0].startswith(f"model {options['model']} at lambda=") and all(states)
    values, slopes, cuts = _closed_form_levels(options, lam)
    if options["model"] == "six-site":
        lhs_want = slopes
    else:
        _, _, lhs_want = _rotated_states(*_oscillator_matrices(int(options["nmax"])), lam)
    assert [int(m[1]) for m in states] == list(range(len(values)))

    residuals, checked = [], 0
    for k, match in enumerate(states):
        lhs, reference, residual = (float(v) for v in match.groups()[1:])
        _assert_close(lhs, lhs_want[k], GOLDEN_TOL, f"lhs of state {k}")
        if _isolated(values, slopes, cuts, k, 4 * FD_STEP):
            _assert_close(reference, slopes[k], FD_TOL, f"reference of state {k}")
            checked += 1
        assert abs(residual - abs(lhs - reference)) <= (
            5e-13 * (abs(lhs) + abs(reference)) + 5e-4 * residual), f"residual of state {k}"
        residuals.append(residual)
    assert checked == len(states)  # no level of these goldens is near a crossing

    worst, relation, threshold, verdict = _VERDICT_LINE.fullmatch(lines[-1]).groups()
    assert float(worst) == max(residuals)
    assert float(threshold) == CHECK_THRESHOLD
    passed = float(worst) <= CHECK_THRESHOLD
    assert (relation, verdict) == (("<=", "PASS") if passed else (">", "FAIL"))
    # and the verdict is the one the references give
    assert passed == bool(np.abs(lhs_want - slopes).max() <= CHECK_THRESHOLD)


# --- classify ---

# The full stdout of classify on the degenerate oscillator shells at
# lambda = 0 (labels read in the rotated basis), at a generic lambda, and
# through the six-site crossing, digit for digit (numpy 2.4.6, OpenBLAS
# 0.3.31).
GOLDEN_CLASSIFY = {
    "classify --model oscillator --nmax 8 --lambda 0": (
        "0 1 A1\n"
        "1 2 B2\n"
        "2 2 B1\n"
        "3 3 A1\n"
        "4 3 A2\n"
        "5 3 A1\n"
        "6 4 B2\n"
        "7 4 B1\n"
        "8 4 B2\n"
        "9 4 B1\n"
        "10 5 A1\n"
        "11 5 A2\n"
        "12 5 A1\n"
        "13 5 A2\n"
        "14 5 A1\n"
        "15 6 B2\n"
        "16 6 B1\n"
        "17 6 B2\n"
        "18 6 B1\n"
        "19 6 B2\n"
        "20 6 B1\n"
        "21 7 A1\n"
        "22 7 A2\n"
        "23 7 A1\n"
        "24 7 A2\n"
        "25 7 A1\n"
        "26 7 A2\n"
        "27 7 A1\n"
        "28 8 B2\n"
        "29 8 B1\n"
        "30 8 B2\n"
        "31 8 B1\n"
        "32 8 B2\n"
        "33 8 B1\n"
        "34 8 B2\n"
        "35 8 B1\n"
        "36 9 A1\n"
        "37 9 A2\n"
        "38 9 A1\n"
        "39 9 A2\n"
        "40 9 A1\n"
        "41 9 A2\n"
        "42 9 A1\n"
        "43 9 A2\n"
        "44 9 A1\n"
    ),
    "classify --model oscillator --nmax 12 --lambda 0.37": (
        "0 0.98209769219591081 A1\n"
        "1 1.7758230857121917 B2\n"
        "2 2.1525676833061111 B1\n"
        "3 2.569548480110925 A1\n"
        "4 2.9462930769408664 A2\n"
        "5 3.3230376744472778 A1\n"
        "6 3.3632741264827564 B2\n"
        "7 3.7400185671952686 B1\n"
        "8 4.1167631090344035 B2\n"
        "9 4.1570001060826351 A1\n"
        "10 4.4935076871146382 B1\n"
        "11 4.5337442256310192 A2\n"
        "12 4.9104886321034362 A1\n"
        "13 4.9507912579066451 B2\n"
        "14 5.2872331478821382 A2\n"
        "15 5.3275041822371261 B1\n"
        "16 5.6639777144216152 A1\n"
        "17 5.7042336157715665 B2\n"
        "18 5.7445971586142752 A1\n"
        "19 6.0809706482345991 B1\n"
        "20 6.1212767501325036 A2\n"
        "21 6.4577114938100495 B2\n"
        "22 6.4979880321320973 A1\n"
        "23 6.5429893455686123 B2\n"
        "24 6.8344550735897567 B1\n"
        "25 6.8747149308750162 A2\n"
        "26 6.9180728152679922 B1\n"
        "27 7.2514497577178405 A1\n"
        "28 7.2938090443088885 B2\n"
        "29 7.3397874675729602 A1\n"
        "30 7.6281893132804646 A2\n"
        "31 7.6699469503257234 B1\n"
        "32 7.7140130332103807 A2\n"
        "33 8.0049331536123187 A1\n"
        "34 8.0463274148167674 B2\n"
        "35 8.0891506645187725 A1\n"
        "36 8.2245779379379158 B2\n"
        "37 8.4228651700985004 B1\n"
        "38 8.46488180758395 A2\n"
        "39 8.5795715489991 B1\n"
        "40 8.7995345825768236 B2\n"
        "41 8.8409871327135114 A1\n"
        "42 8.9401024660090496 B2\n"
        "43 9.0488269081360517 A1\n"
        "44 9.1763661572841464 B1\n"
        "45 9.2173323866606758 A2\n"
        "46 9.3051910601020627 B1\n"
        "47 9.3993358799103071 A2\n"
        "48 9.5938528657973965 A1\n"
        "49 9.6739126495641905 B2\n"
        "50 9.755898260731394 A1\n"
        "51 9.9705441797953878 A2\n"
        "52 10.045521745552596 B1\n"
        "53 10.117600306351333 A2\n"
        "54 10.347464144069743 A1\n"
        "55 10.419569239264783 B2\n"
        "56 10.442885773609213 B2\n"
        "57 10.483523293365927 A1\n"
        "58 10.725262185066178 B1\n"
        "59 10.795986238103968 B1\n"
        "60 10.852854378701863 A2\n"
        "61 11.023087803717949 B2\n"
        "62 11.175072045552721 B2\n"
        "63 11.225003568790436 A1\n"
        "64 11.337094084258103 B1\n"
        "65 11.340662468134061 A1\n"
        "66 11.557424014545211 B1\n"
        "67 11.599695142881052 A2\n"
        "68 11.616774255353745 A2\n"
        "69 11.667655585752597 B2\n"
        "70 11.907756288907796 A1\n"
        "71 11.977047171444983 A1\n"
        "72 12.014716569245714 B1\n"
        "73 12.214456194570904 A2\n"
        "74 12.357452681520405 A2\n"
        "75 12.377793143884313 B2\n"
        "76 12.537376197610913 A1\n"
        "77 12.741559830576371 A1\n"
        "78 12.756048275677225 B1\n"
        "79 12.876639577740324 A2\n"
        "80 13.148409084194224 B2\n"
        "81 13.231948834266479 A1\n"
        "82 13.553687329740173 B1\n"
        "83 13.60262982812019 A2\n"
        "84 13.970677194524345 B2\n"
        "85 13.987730182273472 A1\n"
        "86 14.386136258545486 A2\n"
        "87 14.398222014055829 B1\n"
        "88 14.796677396202295 A1\n"
        "89 15.218202644311964 A2\n"
        "90 15.64962892344912 A1\n"
    ),
    "classify --model six-site --lambda 1.0": (
        "0 -1.9999999999999996 B2\n"
        "1 -1.0000000000000002 A2\n"
        "2 -0.99999999999999989 A1\n"
        "3 0.99999999999999989 B2\n"
        "4 1 B1\n"
        "5 1.9999999999999998 A1\n"
    ),
}


@pytest.mark.parametrize("argv", list(GOLDEN_CLASSIFY))
def test_classify_stdout_is_byte_identical_to_the_golden_output(argv, capsys):
    assert main(argv.split()) == 0
    assert capsys.readouterr() == (GOLDEN_CLASSIFY[argv], "")



# --- the classify golden against eigh and the symmetry sectors ---

# Each line is a state index, its energy and its C2v label.  Energies are
# checked against the six-site closed forms or eigh of the oscillator matrix
# within GOLDEN_TOL.  A label must be the sector of the state, rotated as in
# _rotated_states, under the half-turn C2 and the reflection sigma_v1: on
# the oscillator, parity (-1)^(m + n) and the swap |m, n> -> |n, m>; on the
# six-site ring, sites i -> i + 3 and i -> 5 - i.  Both characters of a state
# must be +-1 within SECTOR_TOL, classify's own tolerance.
SECTOR_TOL = 1e-6
C2V_SECTORS = {(1, 1): "A1", (1, -1): "A2", (-1, 1): "B1", (-1, -1): "B2"}


def _six_site_matrices():
    """H(0) and dH/dlambda of the six-site ring: unit bonds 0-1, 1-2, 3-4
    and 4-5, lambda bonds 0-5 and 2-3."""
    h0, dh = np.zeros((6, 6)), np.zeros((6, 6))
    for m, bonds in ((h0, ((0, 1), (1, 2), (3, 4), (4, 5))), (dh, ((0, 5), (2, 3)))):
        for i, j in bonds:
            m[i, j] = m[j, i] = 1.0
    return h0, dh


def _sector_operators(options):
    """C2 and sigma_v1 of the golden's model, as d x d matrices."""
    if options["model"] == "six-site":
        return np.eye(6)[[3, 4, 5, 0, 1, 2]], np.eye(6)[::-1]
    nmax = int(options["nmax"])
    basis = [(m, nu - m) for nu in range(nmax + 1) for m in range(nu + 1)]
    index = {state: i for i, state in enumerate(basis)}
    parity = np.diag([(-1.0) ** (m + n) for m, n in basis])
    swap = np.eye(len(basis))[[index[(n, m)] for m, n in basis]]
    return parity, swap


@pytest.mark.parametrize("argv", list(GOLDEN_CLASSIFY))
def test_classify_golden_agrees_with_an_independent_reference(argv):
    options = _golden_options(argv)
    lam = float(options["lambda"])
    if options["model"] == "six-site":
        matrices = _six_site_matrices()
        energies = np.sort(_six_site_branches(lam)[0])
    else:
        matrices = _oscillator_matrices(int(options["nmax"]))
        energies = np.linalg.eigvalsh(matrices[0] + lam * matrices[1])
    _, vectors, _ = _rotated_states(*matrices, lam)
    c2, sigma = _sector_operators(options)
    lines = GOLDEN_CLASSIFY[argv].splitlines()
    assert len(lines) == len(energies)
    for k, line in enumerate(lines):
        index, energy, label = line.split()
        assert int(index) == k
        _assert_close(float(energy), energies[k], GOLDEN_TOL, f"energy of state {k}")
        v = vectors[:, k]
        chi = (v @ c2 @ v, v @ sigma @ v)
        sector = tuple(1 if c > 0 else -1 for c in chi)
        assert np.abs(np.subtract(chi, sector)).max() <= SECTOR_TOL, f"state {k}: {chi}"
        assert label == C2V_SECTORS[sector], f"state {k}"


def test_classify_six_site_listing():
    text = run_classify(six_site_scan_config(), 0.5)
    labels = [line.split()[2] for line in text.splitlines()]
    assert labels == ["B2", "A1", "A2", "B1", "B2", "A1"]


def test_classify_six_site_after_crossing():
    # branches swap sorted positions above lambda=1 (the closed forms put
    # the B2 branch below B1 there)
    text = run_classify(six_site_scan_config(), 1.5)
    labels = [line.split()[2] for line in text.splitlines()]
    assert labels == ["B2", "A2", "A1", "B2", "B1", "A1"]


def test_classify_oscillator_ground_state():
    config = ScanConfig(model="oscillator", omega=1.0, nmax=8)
    text = run_classify(config, 0.3)
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


def test_classify_without_rep_is_usage_error(monkeypatch, capsys):
    model = _rep_less_model()
    monkeypatch.setattr("hftkit.cli.build_model", lambda *a, **k: model)
    assert main("classify --model six-site --lambda 0.5".split()) == 2
    assert capsys.readouterr() == (
        "", f"error: model {model.name!r} carries no symmetry representation\n"
    )


def test_classify_marks_unresolvable_states_mixed(monkeypatch):
    monkeypatch.setattr("hftkit.cli.build_model", lambda *a, **k: _mixed_cluster_model())
    text = run_classify(six_site_scan_config(), 0.5)
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


# --- golden help text ---

# The --help text of hftkit and of every subcommand at 80 columns.  The text
# comes from argparse alone, so it pins every flag, metavar and help string;
# the bytes are those of Python 3.11's argparse, whose layout other Python
# versions change.
GOLDEN_HELP = {
    "--help": (
        "usage: hftkit [-h] {scan,fermi,check,classify,crossings,models} ...\n"
        "\n"
        "spectra, slope identities, symmetry labels, and fermionic ground-state cusps\n"
        "of parameter-dependent symmetric operators\n"
        "\n"
        "positional arguments:\n"
        "  {scan,fermi,check,classify,crossings,models}\n"
        "    scan                tracked eigenvalue branches over a lambda grid\n"
        "    fermi               filled-fermion ground energy and cusp slopes\n"
        "    check               slope-identity residual report at one lambda\n"
        "    classify            irrep label per state at one lambda\n"
        "    crossings           frontier level crossings in a window\n"
        "    models              list the built-in model registry\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
    ),
    "scan --help": (
        "usage: hftkit scan [-h] --model {six-site,oscillator} [--omega OMEGA]\n"
        "                   [--nmax NMAX] [--tol-deg TOL_DEG] --lmin LAM_LO --lmax\n"
        "                   LAM_HI [--steps STEPS] [--slopes] [--sorted] [--out OUT]\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
        "  --model {six-site,oscillator}\n"
        "  --omega OMEGA         oscillator frequency\n"
        "  --nmax NMAX           oscillator shell cutoff\n"
        "  --tol-deg TOL_DEG     degeneracy clustering tolerance (default: adaptive)\n"
        "  --lmin LAM_LO\n"
        "  --lmax LAM_HI\n"
        "  --steps STEPS\n"
        "  --slopes              append per-branch slope columns\n"
        "  --sorted              plain ascending columns instead of tracked branches\n"
        "  --out OUT             CSV output path (default stdout)\n"
    ),
    "fermi --help": (
        "usage: hftkit fermi [-h] --model {six-site,oscillator} [--omega OMEGA]\n"
        "                    [--nmax NMAX] [--tol-deg TOL_DEG] --lmin LAM_LO --lmax\n"
        "                    LAM_HI [--steps STEPS] --np N_PARTICLES [--out OUT]\n"
        "                    [--svg SVG]\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
        "  --model {six-site,oscillator}\n"
        "  --omega OMEGA         oscillator frequency\n"
        "  --nmax NMAX           oscillator shell cutoff\n"
        "  --tol-deg TOL_DEG     degeneracy clustering tolerance (default: adaptive)\n"
        "  --lmin LAM_LO\n"
        "  --lmax LAM_HI\n"
        "  --steps STEPS\n"
        "  --np N_PARTICLES\n"
        "  --out OUT\n"
        "  --svg SVG             prefix for the <prefix>_energy.svg /\n"
        "                        <prefix>_slope.svg pair\n"
    ),
    "check --help": (
        "usage: hftkit check [-h] --model {six-site,oscillator} [--omega OMEGA]\n"
        "                    [--nmax NMAX] [--tol-deg TOL_DEG] [--fd-step FD_STEP]\n"
        "                    --lambda LAM\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
        "  --model {six-site,oscillator}\n"
        "  --omega OMEGA         oscillator frequency\n"
        "  --nmax NMAX           oscillator shell cutoff\n"
        "  --tol-deg TOL_DEG     degeneracy clustering tolerance (default: adaptive)\n"
        "  --fd-step FD_STEP\n"
        "  --lambda LAM\n"
    ),
    "classify --help": (
        "usage: hftkit classify [-h] --model {six-site,oscillator} [--omega OMEGA]\n"
        "                       [--nmax NMAX] [--tol-deg TOL_DEG] --lambda LAM\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
        "  --model {six-site,oscillator}\n"
        "  --omega OMEGA         oscillator frequency\n"
        "  --nmax NMAX           oscillator shell cutoff\n"
        "  --tol-deg TOL_DEG     degeneracy clustering tolerance (default: adaptive)\n"
        "  --lambda LAM\n"
    ),
    "crossings --help": (
        "usage: hftkit crossings [-h] --model {six-site,oscillator} [--omega OMEGA]\n"
        "                        [--nmax NMAX] [--tol-deg TOL_DEG] --lmin LAM_LO --lmax\n"
        "                        LAM_HI [--steps STEPS] --np N_PARTICLES\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
        "  --model {six-site,oscillator}\n"
        "  --omega OMEGA         oscillator frequency\n"
        "  --nmax NMAX           oscillator shell cutoff\n"
        "  --tol-deg TOL_DEG     degeneracy clustering tolerance (default: adaptive)\n"
        "  --lmin LAM_LO\n"
        "  --lmax LAM_HI\n"
        "  --steps STEPS\n"
        "  --np N_PARTICLES\n"
    ),
    "models --help": (
        "usage: hftkit models [-h]\n"
        "\n"
        "options:\n"
        "  -h, --help  show this help message and exit\n"
    ),
}


@pytest.mark.parametrize("argv", list(GOLDEN_HELP))
def test_help_text_is_byte_identical_to_the_golden_output(argv, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    assert main(argv.split()) == 0
    assert capsys.readouterr() == (GOLDEN_HELP[argv], "")
