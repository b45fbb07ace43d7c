"""The lazy `privcache` namespace: what a bare import, a session and each CLI path load.

Each check that looks at `sys.modules` runs in a fresh interpreter, since
this test process has long since imported every submodule.
"""

import importlib
import json
import subprocess
import sys

import pytest

import privcache
from privcache.combinat import ScaleLimitError

SESSION_NAMES = (
    "Bits",
    "SchemeParams",
    "FileLibrary",
    "SessionRandomness",
    "place",
    "aux_demand",
    "assemble_delivery",
    "decode",
    "CacheContent",
    "DeliverySignal",
    "AuxDemand",
    "build_v",
)

HOMES = {
    "bitvec": ("Bits",),
    "combinat": ("ScaleLimitError", "binomial"),
    "reference": (
        "DemandClass", "SubsetIndex", "compute_y", "enumerate_r_subsets", "f_map", "subset_rank",
        "subset_unrank", "x_segment",
    ),
    "scheme": (
        "AuxDemand", "CacheContent", "DeliverySignal", "FileLibrary", "SchemeParams",
        "SessionRandomness", "VVector", "assemble_delivery", "aux_demand", "build_delivery",
        "build_v", "decode", "g_map", "place",
    ),
    "tradeoff": ("tight_intervals", "tightness_rows"),
    "verify": (
        "VerificationReport", "oracle_demand_identity", "oracle_y_reconstruction",
        "verify_correctness_exhaustive", "verify_distribution_lemma", "verify_privacy",
    ),
    "yma": ("UVector", "build_u_vector", "yma_delivery"),
}
"""Each exported name's home submodule."""
EXPORTED = sorted(name for names in HOMES.values() for name in names)


def fresh(code: str):
    """Run `code` in a new interpreter and return the JSON it prints last."""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_session_names_leave_the_verifiers_and_the_tradeoff_layer_unloaded():
    loaded = fresh(
        "import json, sys\n"
        "import privcache\n"
        f"for name in {SESSION_NAMES!r}: getattr(privcache, name)\n"
        "print(json.dumps(sorted(sys.modules)))\n"
    )
    for module in (
        "privcache.verify", "privcache.tradeoff", "privcache.plan", "privcache.reference", "fractions",
    ):
        assert module not in loaded
    assert "privcache.scheme" in loaded


def test_sessions_and_the_cli_leave_the_class_generator_unloaded():
    # the record classes write their own constructors, so neither a session's
    # names nor a `verify` command (which loads every record class) nor a
    # `tradeoff` command import `dataclasses` and the `inspect` it pulls in
    loaded = fresh(
        "import contextlib, io, json, sys\n"
        "import privcache\n"
        f"for name in {SESSION_NAMES!r}: getattr(privcache, name)\n"
        "session = sorted(sys.modules)\n"
        "from privcache.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [main(['verify', '--suite', 'all', '--n', '2', '--k', '2', '--r', '1']),\n"
        "             main(['tradeoff', '--k', '3', '--grid', '1/4', '--format', 'json'])]\n"
        "print(json.dumps([session, sorted(sys.modules), codes]))\n"
    )
    session, cli, codes = loaded
    assert codes == [0, 0]
    for module in ("dataclasses", "inspect"):
        assert module not in session
        assert module not in cli
    assert {"privcache.verify", "privcache.tradeoff", "privcache.yma", "privcache.plan"} <= set(cli)


CLI_PATHS = {
    # what a path must leave unloaded, by the argv `cli.main` runs (None: import only)
    None: (
        "privcache.bitvec", "privcache.combinat", "privcache.plan", "privcache.scheme",
        "privcache.tradeoff", "privcache.verify", "privcache.yma", "privcache._record",
        "json", "fractions",
    ),
    ("tradeoff", "--k", "5", "--grid", "1/10", "--format", "csv"): (
        "privcache.scheme", "privcache.verify", "privcache.bitvec", "privcache.yma", "json",
        "privcache._record",
    ),
    ("verify", "--suite", "privacy", "--n", "2", "--k", "3", "--r", "2"): (
        "privcache.tradeoff", "fractions", "privcache.plan", "privcache.reference",
    ),
    ("simulate", "--n", "2", "--k", "3", "--r", "2", "--demands", "0,1,1"): (
        "privcache.tradeoff", "fractions", "privcache.verify",
    ),
    # M and R come from the integer counts, with no plan and no `Fraction`
    ("params", "--n", "2", "--k", "3", "--r", "2"): (
        "privcache.tradeoff", "fractions", "privcache.plan", "privcache.verify",
    ),
}


@pytest.mark.parametrize("argv", list(CLI_PATHS), ids=["import", "tradeoff-csv", "verify-privacy", "simulate", "params"])
def test_each_cli_path_loads_only_its_own_layer(argv):
    code, loaded = fresh(
        "import contextlib, io, sys\n"
        "import privcache.cli\n"
        "code = None\n"
        f"if {argv!r} is not None:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        f"        code = privcache.cli.main(list({argv!r}))\n"
        "loaded = sorted(sys.modules)\n"
        "import json\n"
        "print(json.dumps([code, loaded]))\n"
    )
    assert code == (None if argv is None else 0)
    assert not set(CLI_PATHS[argv]) & set(loaded)
    home = {None: "privcache.cli", "tradeoff": "privcache.tradeoff", "verify": "privcache.verify",
            "simulate": "privcache.scheme", "params": "privcache.scheme"}
    assert home[argv and argv[0]] in loaded


@pytest.mark.parametrize("suite, loads_reference", [("identities", False), ("reconstruction", True)])
def test_only_the_reconstruction_oracle_loads_the_reference_layer(suite, loads_reference):
    # the signal-reconstruction oracle checks decoding against the
    # per-element `reference.compute_y`; the identity oracle reads only
    # session code (`g_map` and the selector sets)
    code, loaded = fresh(
        "import contextlib, io, json, sys\n"
        "import privcache.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = privcache.cli.main(['verify', '--suite', {suite!r}, '--n', '2', '--k', '3', '--r', '2'])\n"
        "print(json.dumps([code, sorted(sys.modules)]))\n"
    )
    assert code == 0
    assert ("privcache.reference" in loaded) is loads_reference
    assert "privcache.verify" in loaded


def test_bare_import_loads_no_submodule():
    loaded = fresh("import json, sys\nimport privcache\nprint(json.dumps(sorted(sys.modules)))\n")
    assert not [m for m in loaded if m.startswith("privcache.")]


def test_exported_names_are_pinned():
    assert len(EXPORTED) == 36
    assert sorted(privcache.__all__) == EXPORTED


@pytest.mark.parametrize("module, name", [(m, n) for m, names in HOMES.items() for n in names])
def test_every_name_is_its_home_module_object(module, name):
    assert getattr(privcache, name) is getattr(importlib.import_module(f"privcache.{module}"), name)


def test_scale_limit_error_is_one_class():
    from privcache import verify

    assert privcache.ScaleLimitError is ScaleLimitError is verify.ScaleLimitError


def test_submodules_resolve_after_a_bare_import():
    got = fresh(
        "import json, sys\n"
        "import privcache\n"
        "loaded_first = 'privcache.verify' in sys.modules\n"
        "mod = privcache.verify\n"
        "print(json.dumps([loaded_first, mod.__name__, mod is sys.modules['privcache.verify'],\n"
        "                  privcache.cli.__name__, privcache.plan.__name__]))\n"
    )
    assert got == [False, "privcache.verify", True, "privcache.cli", "privcache.plan"]


def test_unknown_names_raise_attribute_error():
    assert not hasattr(privcache, "nope")
    with pytest.raises(AttributeError, match="has no attribute 'nope'"):
        privcache.nope  # noqa: B018


def test_star_import_binds_every_name():
    bound = fresh(
        "import json\n"
        "from privcache import *\n"
        "print(json.dumps(sorted(n for n in dir() if not n.startswith('_') and n != 'json')))\n"
    )
    assert bound == EXPORTED


def test_dir_lists_names_and_submodules():
    listed = dir(privcache)
    assert set(EXPORTED) <= set(listed)
    assert {"verify", "tradeoff", "scheme", "cli", "plan"} <= set(listed)

