import contextlib
import io
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drcalc import cli, derham, homology
from drcalc.dg import koszul_presentation
from drcalc.parse import parse_poly

FAT = "vars x\nodd t deg -1 weight 2\nd t = x^2\n"
FILE_COMMANDS = ["derham", "cotangent", "cartier", "a1-check"]


@pytest.fixture
def fat_file(tmp_path):
    path = tmp_path / "fat.dg"
    path.write_text(FAT)
    return str(path)


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out.splitlines(), captured.err


def test_derham(fat_file, capsys):
    code, out, _ = run(capsys, ["derham", "--file", fat_file, "--truncate", "6"])
    assert code == 0
    assert out[0] == "command: derham"
    assert out[1] == f"params: file={fat_file} hodge=3 truncate=6"
    assert out[2:] == [
        "H^{-1} dim=0 stable=true",
        "H^{0} dim=1 stable=false",
        "H^{1} dim=0 stable=true",
    ]


def test_cotangent(fat_file, capsys):
    code, out, _ = run(capsys, ["cotangent", "--file", fat_file])
    assert code == 0
    assert out[2:] == [
        "H^{-2} dim=0 stable=true",
        "H^{-1} dim=1 stable=true",
        "H^{0} dim=1 stable=true",
    ]


def test_cartier(fat_file, capsys):
    code, out, _ = run(capsys, ["cartier", "--file", fat_file, "--k", "1"])
    assert code == 0
    assert out[-1] == "cartier k=1 verdict=equal"


def test_koszul(capsys):
    code, out, _ = run(
        capsys, ["koszul", "--vars", "x,y", "--f", "x*y", "--power", "2"]
    )
    assert code == 0
    assert out == [
        "command: koszul",
        "params: vars=x,y power=2",
        "vars x y",
        "odd t deg -1 weight 4",
        "d t = x^2*y^2",
    ]


def test_tower(capsys):
    code, out, _ = run(
        capsys,
        ["tower", "--vars", "x,y", "--f", "x*y", "--from", "2", "--to", "1"],
    )
    assert code == 0
    assert out[2] == "t -> x*y*t"
    assert out[3] == "chain_map ok=true"


def test_amitsur_compare(capsys):
    code, out, _ = run(
        capsys, ["amitsur-compare", "--vars", "x", "--f", "x^2", "--pmax", "3"]
    )
    assert code == 0
    assert out[2] == "n=0 amitsur=1 derham=1 verdict=equal"
    assert out[3] == "n=1 amitsur=0 derham=0 verdict=equal"


def test_amitsur_compare_frontier(capsys):
    # the conerve frontier case (x*y, pmax 5, W 6); CI also runs it
    # under a timeout so that its build stays interactive
    code, out, _ = run(capsys, [
        "amitsur-compare", "--vars", "x,y", "--f", "x*y", "--pmax", "5",
        "--hodge", "3", "--truncate", "6",
    ])
    assert code == 0
    assert out[2:] == [
        "n=0 amitsur=1 derham=1 verdict=equal",
        "n=1 amitsur=0 derham=1 verdict=mismatch",
        "n=2 amitsur=0 derham=0 verdict=equal",
        "n=3 amitsur=0 derham=0 verdict=equal",
    ]


def test_ideal_gb(capsys):
    code, out, _ = run(
        capsys,
        ["ideal", "gb", "--vars", "x,y", "--gen", "x^2+y", "--gen", "y^2"],
    )
    assert code == 0
    assert out == [
        "command: ideal gb",
        "params: vars=x,y order=grevlex",
        "y^2",
        "x^2 + y",
    ]


def test_ideal_colon(capsys):
    code, out, _ = run(
        capsys, ["ideal", "colon", "--vars", "x,y", "--gen", "x*y", "--by", "x"]
    )
    assert code == 0
    assert out[-1] == "y"


def test_ideal_annchain(capsys):
    code, out, _ = run(
        capsys,
        ["ideal", "annchain", "--vars", "x", "--gen", "x^3", "--f", "x",
         "--levels", "4"],
    )
    assert code == 0
    assert out[2:] == [
        "level 1: x^2",
        "level 2: x",
        "level 3: 1",
        "level 4: 1",
        "stab=3",
    ]


def test_reiffen_check_infeasible(capsys):
    code, out, _ = run(
        capsys,
        ["reiffen", "check", "--vars", "x,y", "--f", "x^4+y^5+y^4*x",
         "--degree", "5"],
    )
    assert code == 0
    assert out[1] == "params: vars=x,y f=x^4 + y^4*x + y^5 g=1 degree=5"
    assert out[2] == "verdict=infeasible certificate=[0,0,0,7,23,-29,0,0,0,0]"
    assert out[3].startswith("note: infeasible at a finite degree bound")


def test_reiffen_check_feasible(capsys):
    code, out, _ = run(
        capsys,
        ["reiffen", "check", "--vars", "x,y", "--f", "x^2+y^2", "--degree", "6"],
    )
    assert code == 0
    assert out[2] == "verdict=feasible witness=[1/4*x; 1/4*y]"
    assert out[3].endswith("feasible only certifies the window")


def test_reiffen_scan(capsys):
    code, out, _ = run(
        capsys,
        ["reiffen", "scan", "--qmax", "4", "--pmax", "5", "--degree", "8"],
    )
    assert code == 0
    assert out[2] == "q=4 p=5 verdict=infeasible"


@pytest.mark.parametrize("qmax, pmax", [("3", "3"), ("3", "7"), ("5", "4")])
def test_reiffen_scan_empty_range_exits_2(capsys, qmax, pmax):
    code, out, err = run(
        capsys,
        ["reiffen", "scan", "--qmax", qmax, "--pmax", pmax, "--degree", "20"],
    )
    assert code == 2
    assert not out
    assert err == (
        f"error: scan range qmax={qmax} pmax={pmax} holds no member; the "
        "family starts at q=4, p=5\n"
    )


def test_stalk(capsys):
    code, out, _ = run(
        capsys,
        ["stalk", "--vars", "x,y", "--f", "x^4+y^5+y^4*x", "--truncate", "9"],
    )
    assert code == 0
    assert out[2:] == [
        "H^{0} dim=1 stable=true",
        "H^{1} dim=1 stable=true",
        "H^{2} dim=0 stable=true",
    ]


def test_witness(capsys):
    code, out, _ = run(capsys, ["witness", "--nmax", "1", "--grid", "128"])
    assert code == 0
    assert out[1] == "params: nmax=1 precision-bits=200 grid=128"
    assert out[2] == "n=1 logT_lower=-5.868070226 verdict=positive"


@pytest.mark.parametrize(
    "flags",
    [["--nmax", "0"], ["--grid", "0"], ["--grid", "-5"], ["--precision-bits", "0"]],
)
def test_bad_witness_parameters_exit_2(capsys, flags):
    code, out, err = run(capsys, ["witness", *flags])
    assert code == 2
    assert not out
    assert err.startswith("error:")


@pytest.mark.parametrize(
    "argv",
    [
        ["ideal", "colon", "--vars", "x", "--gen", "x", "--by", "0"],
        ["ideal", "annchain", "--vars", "x", "--gen", "x", "--f", "x",
         "--levels", "0"],
        ["ideal", "annchain", "--vars", "x", "--gen", "x", "--f", "0"],
        ["fibre-report", "--vars", "x", "--f", "1"],
    ],
    ids=["colon-by-0", "annchain-levels-0", "annchain-f-0", "fibre-unit"],
)
def test_degenerate_ideal_and_fibre_inputs_exit_2(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 2
    assert not out
    assert err.startswith("error:")


@pytest.mark.parametrize(
    "names, bad",
    [("x y", "x y"), ("x,y z", "y z"), ("x,2y", "2y"), ("x,y-1", "y-1")],
)
def test_bad_variable_names_exit_2(capsys, names, bad):
    code, out, err = run(capsys, ["koszul", "--vars", names, "--f", "x"])
    assert code == 2
    assert not out
    assert err == f"error: --vars: {bad!r} is not an identifier\n"


@pytest.mark.parametrize(
    "argv, name",
    [
        (["koszul", "--vars", "t,x", "--f", "x"], "t"),
        (["tower", "--vars", "t,x", "--f", "x", "--from", "2", "--to", "1"], "t"),
        (["amitsur-compare", "--vars", "t,x", "--f", "x"], "t"),
        (["koszul", "--vars", "t2,x", "--f", "x", "--f", "t2"], "t2"),
    ],
    ids=["koszul", "tower", "amitsur-compare", "koszul-t2"],
)
def test_reserved_generator_name_exits_2(capsys, argv, name):
    code, out, err = run(capsys, argv)
    assert code == 2
    assert not out
    assert err == (
        f"error: variable {name!r} clashes with a reserved Koszul generator "
        "name (t for one polynomial, t1, t2, ... for several)\n"
    )


@pytest.mark.parametrize(
    "argv, f",
    [
        (["koszul", "--vars", "x,y", "--f", "1+x"], "x + 1"),
        (["tower", "--vars", "x,y", "--f", "1+x", "--from", "2", "--to", "1"],
         "x + 1"),
        (["amitsur-compare", "--vars", "x,y", "--f", "1+x*y"], "x*y + 1"),
        (["koszul", "--vars", "x,y", "--f", "x", "--f", "2"], "2"),
    ],
    ids=["koszul", "tower", "amitsur-compare", "koszul-second"],
)
def test_unit_part_exits_2(capsys, argv, f):
    code, out, err = run(capsys, argv)
    assert code == 2
    assert not out
    assert err == (
        f"error: polynomial {f} has a unit part; the weighted Koszul "
        "complex needs every polynomial to vanish at the origin\n"
    )


def test_variable_t_is_free_with_several_polynomials(capsys):
    argv = ["koszul", "--vars", "t,x", "--f", "x", "--f", "t"]
    assert run(capsys, argv)[0] == 0


def test_fibre_report(capsys):
    code, out, _ = run(capsys, ["fibre-report", "--vars", "x", "--f", "x^2"])
    assert code == 0
    assert out[4] == "deep-intersection dim=0 (f^4 clears the window)"
    assert out[-1] == "euler ambient=1 stage=1 additivity=true"


def test_a1_check(fat_file, capsys):
    code, out, _ = run(capsys, ["a1-check", "--file", fat_file])
    assert code == 0
    assert out[2] == "a1 ok=true"
    assert out[3] == "H^{-1} base=0 extended=0"


# ---------------------------------------------------------------------------
# defaults, precedence, determinism, exit codes


def test_file_directives_fill_defaults(tmp_path, capsys):
    path = tmp_path / "fat.dg"
    path.write_text(FAT + "truncate 9\nhodge 2\n")
    code, out, _ = run(capsys, ["derham", "--file", str(path)])
    assert code == 0
    assert out[1] == f"params: file={path} hodge=2 truncate=9"


def test_flags_override_file_directives(tmp_path, capsys):
    path = tmp_path / "fat.dg"
    path.write_text(FAT + "truncate 9\nhodge 2\n")
    code, out, _ = run(
        capsys, ["derham", "--file", str(path), "--truncate", "6", "--hodge", "3"]
    )
    assert code == 0
    assert out[1] == f"params: file={path} hodge=3 truncate=6"


# Every subcommand: a run, and each declared option's echoed value, as
# resolved: the flag, else the file's directive, else the default;
# polynomials in normal form.  None marks a repeatable option, which
# is not echoed.  DIRECTIVES is the fat point with "truncate 5" and
# "hodge 2".
ECHO = {
    "derham": (
        ["--file", "{dir}", "--hodge", "4"],
        {"--file": "{dir}", "--hodge": "4", "--truncate": "5"},
    ),
    "cotangent": (["--file", "{dir}"], {"--file": "{dir}", "--truncate": "5"}),
    "cartier": (
        ["--file", "{fat}", "--truncate", "4"],
        {"--file": "{fat}", "--k": "1", "--truncate": "4"},
    ),
    "koszul": (
        ["--vars", "x,y", "--f", "x*y", "--f", "y^2"],
        {"--vars": "x,y", "--f": None, "--power": "1"},
    ),
    "tower": (
        ["--vars", "x", "--f", "x^2", "--to", "1", "--from", "2"],
        {"--vars": "x", "--f": None, "--from": "2", "--to": "1",
         "--truncate": "6"},
    ),
    "amitsur-compare": (
        ["--vars", "x", "--f", "x*x", "--truncate", "4"],
        {"--vars": "x", "--f": "x^2", "--pmax": "3", "--hodge": "3",
         "--truncate": "4"},
    ),
    "ideal gb": (
        ["--vars", "x,y", "--gen", "y^2", "--gen", "x^2+y"],
        {"--vars": "x,y", "--gen": None, "--order": "grevlex"},
    ),
    "ideal colon": (
        ["--vars", "x,y", "--order", "lex", "--gen", "x*y", "--by", "x"],
        {"--vars": "x,y", "--gen": None, "--by": "x", "--order": "lex"},
    ),
    "ideal annchain": (
        ["--vars", "x", "--gen", "x^3", "--f", "x"],
        {"--vars": "x", "--gen": None, "--f": "x", "--levels": "4",
         "--order": "grevlex"},
    ),
    "reiffen check": (
        ["--vars", "x,y", "--f", "y^2+x^2", "--degree", "4"],
        {"--vars": "x,y", "--f": "x^2 + y^2", "--g": "1", "--degree": "4"},
    ),
    "reiffen scan": (
        ["--degree", "8", "--pmax", "5"],
        {"--qmax": "4", "--pmax": "5", "--degree": "8"},
    ),
    "stalk": (
        ["--vars", "x,y", "--f", "x*y", "--truncate", "4"],
        {"--vars": "x,y", "--f": None, "--truncate": "4"},
    ),
    "witness": (
        ["--grid", "64", "--nmax", "1"],
        {"--nmax": "1", "--precision-bits": "200", "--grid": "64"},
    ),
    "fibre-report": (
        ["--vars", "x", "--f", "x^2"],
        {"--vars": "x", "--f": "x^2", "--hodge": "3", "--truncate": "6"},
    ),
    "a1-check": (
        ["--file", "{dir}", "--truncate", "3"],
        {"--file": "{dir}", "--hodge": "2", "--truncate": "3"},
    ),
}

DIRECTIVES = FAT + "truncate 5\nhodge 2\n"


def _help(path):
    """What ``drcalc PATH --help`` prints."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), pytest.raises(SystemExit):
        cli.main([*path, "--help"])
    return out.getvalue()


def _subcommands(path=()):
    """Every subcommand under ``path``, read off the help's choices."""
    choices = re.search(r"^positional arguments:\n  \{([\w,-]+)\}",
                        _help(path), re.MULTILINE)
    if choices is None:
        return [" ".join(path)]
    return [
        command
        for name in choices.group(1).split(",")
        for command in _subcommands((*path, name))
    ]


def test_echo_table_covers_every_subcommand():
    assert sorted(_subcommands()) == sorted(ECHO)


@pytest.mark.parametrize("command", sorted(ECHO))
def test_echo_lists_declared_options_as_resolved(tmp_path, capsys, command):
    fat, directives = tmp_path / "fat.dg", tmp_path / "dir.dg"
    fat.write_text(FAT)
    directives.write_text(DIRECTIVES)
    argv, values = ECHO[command]
    values = {
        k: v if v is None else v.format(fat=fat, dir=directives)
        for k, v in values.items()
    }
    declared = re.findall(r"^  (--[\w-]+)", _help(command.split()),
                          re.MULTILINE)
    assert sorted(declared) == sorted(values)
    code, out, err = run(capsys, [
        *command.split(), *(a.format(fat=fat, dir=directives) for a in argv)
    ])
    assert code == 0, err
    echo = " ".join(
        f"{option[2:]}={values[option]}"
        for option in declared if values[option] is not None
    )
    assert out[:2] == [f"command: {command}", f"params: {echo}"]


NUMBER = "expected a number, variable or '(' at column 2"


@pytest.mark.parametrize(
    "argv, error",
    [
        (["reiffen", "check", "--vars", "x,y", "--f", "x+", "--g", "y+"],
         f"{NUMBER}: 'x+'"),
        (["ideal", "colon", "--vars", "x,y", "--by", "y+", "--gen", "x*"],
         f"{NUMBER}: 'x*'"),
        (["ideal", "annchain", "--vars", "x", "--f", "x+", "--gen", "x^"],
         "expected integer exponent after '^' at column 2: 'x^'"),
        (["stalk", "--f", "x+", "--vars", "x,1y"],
         "--vars: '1y' is not an identifier"),
    ],
    ids=["check-f-before-g", "colon-gen-before-by", "annchain-gen-before-f",
         "stalk-vars-before-f"],
)
def test_first_declared_bad_input_is_reported(capsys, argv, error):
    # of two bad inputs, the one declared first is reported, whatever
    # their order on the command line
    code, out, err = run(capsys, argv)
    assert code == 2
    assert not out
    assert err == f"error: {error}\n"


@pytest.mark.parametrize("command", FILE_COMMANDS)
def test_file_that_is_not_utf8_exits_2(tmp_path, capsys, command):
    path = tmp_path / "utf16.dg"
    path.write_bytes(FAT.encode("utf-16"))
    assert path.read_bytes()[:2] == b"\xff\xfe"
    code, out, err = run(capsys, [command, "--file", str(path)])
    assert code == 2
    assert not out
    assert err == f"error: {path}: not UTF-8 text (invalid start byte at byte 0)\n"


@pytest.mark.parametrize("command", FILE_COMMANDS)
def test_presentation_that_lowers_weight_is_refused(tmp_path, capsys, command):
    # every command that reads a presentation file validates it first,
    # cartier included, which builds no cotangent complex
    path = tmp_path / "heavy.dg"
    path.write_text("vars x\nodd t deg -1 weight 5\nd t = x^2\n")
    code, out, err = run(capsys, [command, "--file", str(path)])
    assert code == 2
    assert not out
    assert err == "error: presentation rejected: d lowers weight on t: 2 < 5\n"


def test_forced_verdicts_build_no_second_complex(fat_file, capsys, monkeypatch):
    # cartier reads its verdict off the Hodge column, one assembly at
    # W+1; tower reads chain_map off tower_map's generator check, none
    calls = []
    build = homology.weight_truncate

    def counted(source, weight):
        calls.append(weight)
        return build(source, weight)

    monkeypatch.setattr(derham, "weight_truncate", counted)
    monkeypatch.setattr(homology, "weight_truncate", counted)
    pres = koszul_presentation(("x", "y"), [parse_poly(("x", "y"), "x*y")], 1)
    for k in range(3):
        calls.clear()
        derham.cartier_check(pres, k, 5)
        assert calls == [6]
    calls.clear()
    assert cli.main(["cartier", "--file", fat_file, "--truncate", "4"]) == 0
    assert calls == [5]
    calls.clear()
    assert cli.main([
        "tower", "--vars", "x,y", "--f", "x^4+y^5+y^4*x", "--from", "3",
        "--to", "1", "--truncate", "400",
    ]) == 0
    assert calls == []
    assert capsys.readouterr().out.splitlines()[-1] == "chain_map ok=true"


def test_repeat_runs_are_identical(capsys):
    argv = ["reiffen", "check", "--vars", "x,y", "--f", "x^4+y^5+y^4*x",
            "--degree", "6"]
    cli.main(argv)
    first = capsys.readouterr().out
    cli.main(argv)
    second = capsys.readouterr().out
    assert first == second
    argv = ["witness", "--nmax", "2", "--grid", "64"]
    cli.main(argv)
    first = capsys.readouterr().out
    cli.main(argv)
    second = capsys.readouterr().out
    assert first == second


def _main_output(argv):
    """(exit code, stdout) of one ``main`` call; a usage error is exit 2."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


def test_one_parser_serves_every_call():
    # repeatable options of different lengths, a usage error, then a
    # valid run: each matches a run on a freshly built parser, so no
    # parse leaves state behind in the shared one
    calls = [
        ["ideal", "gb", "--vars", "x,y", "--gen", "x*y", "--gen", "x^2+y^3"],
        ["ideal", "gb", "--vars", "x,y", "--gen", "y^2"],
        ["stalk", "--vars", "x,y", "--f", "x^2", "--f", "y^3",
         "--truncate", "4"],
        ["koszul", "--vars", "x,y", "--f", "x*y"],
        ["ideal", "gb", "--vars", "x,y"],
        ["ideal", "gb", "--vars", "x,y", "--gen", "x+y"],
    ]
    fresh = []
    for argv in calls:
        cli._parser.cache_clear()
        fresh.append(_main_output(argv))
    assert [code for code, _ in fresh] == [0, 0, 0, 0, 2, 0]
    assert fresh[4][1] == ""
    cli._parser.cache_clear()
    shared = [_main_output(argv) for argv in calls]
    assert cli._parser.cache_info().misses == 1
    assert shared == fresh


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as err:
        cli.main([])
    assert err.value.code == 2


def test_parse_error_exits_2(capsys):
    code, out, err = run(capsys, ["koszul", "--vars", "x", "--f", "x^"])
    assert code == 2
    assert not out
    assert "error:" in err
    assert "column 2" in err


@pytest.mark.parametrize(
    "text, column", [("x^\u0663", 2), ("\uff11*x", 0)], ids=["arabic-indic", "fullwidth"]
)
def test_non_ascii_digit_exits_2(capsys, text, column):
    code, out, err = run(capsys, ["koszul", "--vars", "x", "--f", text])
    assert code == 2
    assert not out
    assert err.startswith(f"error: unexpected character at column {column}:")


# every integer option, each given an Arabic-Indic digit
INTEGER_OPTIONS = [
    ["derham", "--file", "{fat}", "--hodge"],
    ["derham", "--file", "{fat}", "--truncate"],
    ["cartier", "--file", "{fat}", "--k"],
    ["koszul", "--vars", "x", "--f", "x^2", "--power"],
    ["tower", "--vars", "x", "--f", "x^2", "--to", "1", "--from"],
    ["tower", "--vars", "x", "--f", "x^2", "--from", "2", "--to"],
    ["amitsur-compare", "--vars", "x,y", "--f", "x*y", "--pmax"],
    ["ideal", "annchain", "--vars", "x,y", "--gen", "x*y", "--f", "x",
     "--levels"],
    ["reiffen", "check", "--vars", "x,y", "--f", "x^3+y^4", "--degree"],
    ["reiffen", "scan", "--qmax"],
    ["reiffen", "scan", "--pmax"],
    ["reiffen", "scan", "--degree"],
    ["witness", "--nmax"],
    ["witness", "--precision-bits"],
    ["witness", "--grid"],
]


@pytest.mark.parametrize(
    "argv", INTEGER_OPTIONS, ids=lambda a: f"{a[0]}{a[-1]}"
)
def test_non_ascii_integer_option_exits_2(fat_file, capsys, argv):
    argv = [a.format(fat=fat_file) for a in argv] + ["\u0661\u0666"]
    with pytest.raises(SystemExit) as exit_:
        cli.main(argv)
    assert exit_.value.code == 2
    out, err = capsys.readouterr()
    assert not out
    assert f"error: argument {argv[-2]}: invalid integer value" in err


def test_non_ascii_integers_in_a_file_exit_2(tmp_path, capsys):
    path = tmp_path / "digits.dg"
    path.write_text(
        "vars x\nodd t deg -\u0661 weight \u0662\nd t = x^2\n"
        "truncate \u0666\n"
    )
    code, out, err = run(capsys, ["derham", "--file", str(path)])
    assert code == 2
    assert not out
    assert err == "error: line 2: degree and weight must be integers\n"
    path.write_text(FAT + "truncate \u0666\n")
    code, out, err = run(capsys, ["derham", "--file", str(path)])
    assert code == 2
    assert not out
    assert err == "error: line 4: truncate takes one integer\n"


DEEP_F = {
    "parentheses": "(" * 250 + "x" + ")" * 250,
    "minuses": "-" * 500 + "x",
}


@pytest.mark.parametrize("text", DEEP_F.values(), ids=DEEP_F)
def test_deeply_nested_f_exits_2(capsys, text):
    code, out, err = run(capsys, ["stalk", "--vars", "x,y", f"--f={text}"])
    assert code == 2
    assert not out
    assert err.startswith("error: nested too deeply at column ")


def test_deeply_nested_presentation_exits_2(tmp_path, capsys):
    path = tmp_path / "deep.dg"
    deep = "(" * 400 + "x" + ")" * 400
    path.write_text(f"vars x\nodd t deg -1 weight 1\nd t = {deep}\n")
    code, out, err = run(capsys, ["derham", "--file", str(path)])
    assert code == 2
    assert not out
    assert err.startswith("error: line 3: nested too deeply at column ")


def test_missing_file_exits_2(tmp_path, capsys):
    code, _, err = run(
        capsys, ["derham", "--file", str(tmp_path / "absent.dg")]
    )
    assert code == 2
    assert "error:" in err


def test_bad_presentation_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.dg"
    path.write_text("vars x\nodd t deg -1 weight 1\nd t = x +\n")
    code, _, err = run(capsys, ["derham", "--file", str(path)])
    assert code == 2
    assert "line 3" in err


def test_resource_limit_exits_3(capsys):
    code, out, err = run(
        capsys,
        ["reiffen", "check", "--vars", "x,y", "--f", "x^4+y^5+y^4*x",
         "--degree", "200"],
    )
    assert code == 3
    assert not out
    assert "resource limit:" in err
    # both numbers are named: the predicted size and the cap it exceeds
    assert "predicted unknown count 39402 exceeds the cap 20000" in err


# ---------------------------------------------------------------------------
# negative weights are refused before anything is built

NEGATIVE_WEIGHT = [
    ["derham", "--file", "{fat}"],
    ["cotangent", "--file", "{fat}"],
    ["cartier", "--file", "{fat}", "--k", "1"],
    ["a1-check", "--file", "{fat}"],
    ["tower", "--vars", "x", "--f", "x^2", "--from", "2", "--to", "1"],
    ["amitsur-compare", "--vars", "x,y", "--f", "x*y", "--pmax", "4"],
    ["stalk", "--vars", "x,y", "--f", "x*y"],
    ["fibre-report", "--vars", "x", "--f", "x^2"],
]


@pytest.mark.parametrize("weight", ["-1", "-3"])
@pytest.mark.parametrize("argv", NEGATIVE_WEIGHT, ids=lambda a: a[0])
def test_negative_truncate_flag_exits_2(fat_file, capsys, argv, weight):
    argv = [a.format(fat=fat_file) for a in argv] + ["--truncate", weight]
    code, out, err = run(capsys, argv)
    assert code == 2
    assert not out
    assert err == f"error: weight {weight} is negative; windows start at 0\n"


@pytest.mark.parametrize(
    "argv", [a for a in NEGATIVE_WEIGHT if "{fat}" in a], ids=lambda a: a[0]
)
def test_negative_truncate_directive_exits_2(tmp_path, capsys, argv):
    path = tmp_path / "fat.dg"
    path.write_text(FAT + "truncate -1\n")
    code, out, err = run(capsys, [a.format(fat=path) for a in argv])
    assert code == 2
    assert not out
    assert err == "error: weight -1 is negative; windows start at 0\n"


@pytest.mark.parametrize("degree", ["-1", "-5"])
def test_negative_degree_flag_exits_2(capsys, degree):
    argv = ["reiffen", "check", "--vars", "x,y", "--f", "x^2+y^3"]
    code, out, err = run(capsys, argv + ["--degree", degree])
    assert code == 2
    assert not out
    assert err == f"error: degree {degree} is negative; windows start at 0\n"
    # degree 0 is a window: the constant terms alone
    code, out, _ = run(capsys, argv + ["--degree", "0"])
    assert code == 0
    assert out[2] == "verdict=feasible witness=[0; 0]"


# ---------------------------------------------------------------------------
# argument fuzz on the fat point: a verdict, a usage error or a limit,
# never a traceback

FUZZ_COMMANDS = {
    "derham": (["derham", "--file", "{fat}"], ("--hodge", "--truncate")),
    "cotangent": (["cotangent", "--file", "{fat}"], ("--truncate",)),
    "cartier": (["cartier", "--file", "{fat}"], ("--k", "--truncate")),
    "a1-check": (["a1-check", "--file", "{fat}"], ("--hodge", "--truncate")),
    "amitsur-compare": (
        ["amitsur-compare", "--vars", "x", "--f", "x^2"],
        ("--pmax", "--hodge", "--truncate"),
    ),
    "fibre-report": (
        ["fibre-report", "--vars", "x", "--f", "x^2"],
        ("--hodge", "--truncate"),
    ),
    "stalk": (["stalk", "--vars", "x", "--f", "x^2"], ("--truncate",)),
}


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(sorted(FUZZ_COMMANDS)), st.data())
def test_cli_fuzz_fat_point(tmp_path_factory, command, data):
    fat = tmp_path_factory.getbasetemp() / "fuzz-fat.dg"
    fat.write_text(FAT)
    argv, flags = FUZZ_COMMANDS[command]
    argv = [a.format(fat=fat) for a in argv]
    for flag in flags:
        if data.draw(st.booleans(), label=f"give {flag}"):
            argv += [flag, str(data.draw(st.integers(-3, 6), label=flag))]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 2, 3)
    assert "Traceback" not in err.getvalue()
    if code == 0:
        assert out.getvalue().startswith(f"command: {command}\n")
    else:
        assert not out.getvalue()
        assert err.getvalue().startswith(("error: ", "resource limit: "))


# ---------------------------------------------------------------------------
# cold start: only the witness loads mpmath.  This runs in a fresh
# interpreter, since other tests load mpmath into this one.

COLD_START = """
import contextlib, io, json, sys
import drcalc.cli
print(json.dumps(["import", "mpmath" in sys.modules]))
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = drcalc.cli.main(argv)
    print(json.dumps([argv[0], "mpmath" in sys.modules, code, out.getvalue()]))
"""


def test_only_the_witness_loads_mpmath(fat_file):
    commands = [
        ["derham", "--file", fat_file, "--truncate", "6"],
        ["stalk", "--vars", "x,y", "--f", "x*y", "--truncate", "4"],
        ["reiffen", "check", "--vars", "x,y", "--f", "x^2+y^3", "--degree", "6"],
        ["ideal", "gb", "--vars", "x,y", "--gen", "x^2+y", "--gen", "x*y"],
        ["amitsur-compare", "--vars", "x,y", "--f", "x*y", "--pmax", "3",
         "--truncate", "4"],
        ["witness", "--nmax", "1", "--grid", "128"],
    ]
    src = Path(cli.__file__).resolve().parents[1]
    done = subprocess.run(
        [sys.executable, "-c", COLD_START, json.dumps(commands)], cwd=src,
        capture_output=True, text=True, check=True,
    )
    steps = [json.loads(line) for line in done.stdout.splitlines()]
    assert len(steps) == len(commands) + 1
    assert steps[0] == ["import", False]
    for (name, loaded, code, _), argv in zip(steps[1:-1], commands):
        assert (name, loaded, code) == (argv[0], False, 0)
    name, loaded, code, out = steps[-1]
    assert (name, loaded, code) == ("witness", True, 0)
    assert out.splitlines()[-1] == "n=1 logT_lower=-5.868070226 verdict=positive"
