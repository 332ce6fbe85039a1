"""Rules on the package source that no behavioural test would catch.

Most rules say that one kind of code has one owner. Each such rule is a
predicate on one AST node, which ``hits`` runs over every node of every
module, outside the file the rule skips and the owners whose code it
exempts, returning ``file:line`` for each node flagged. To add a rule,
write its predicate for ``hits``, a test that the package gives no hit,
and one planted row: ``plant`` appends lines to a copy of the package and
returns the copy with the ``file:line`` the rule must report there.
"""

import ast
import shutil
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "nuclei3d"


def modules(src):
    """``(file name, AST)`` of each module of the package under ``src``, in name order."""
    paths = sorted(Path(src).glob("*.py"))
    return [(path.name, ast.parse(path.read_text(), filename=str(path))) for path in paths]


def owned(tree, name, method=None):
    """The ids of all nodes of the top-level function or class ``name`` of ``tree``, or of
    its method ``method``; empty if ``tree`` defines no ``name``."""
    for node in tree.body:
        if getattr(node, "name", None) == name:
            if method is not None:
                node = next(n for n in node.body if getattr(n, "name", None) == method)
            return {id(n) for n in ast.walk(node)}
    return set()


def hits(src, is_hit, skip=None, owners=()):
    """``file:line`` of each node of the package under ``src`` that ``is_hit`` flags, outside
    the file ``skip`` and the code of ``owners``: ``(file, function)`` or ``(file, class, method)``
    tuples."""
    found = []
    for file, tree in modules(src):
        if file == skip:
            continue
        exempt = set().union(*(owned(tree, *owner[1:]) for owner in owners if owner[0] == file))
        found += [f"{file}:{n.lineno}" for n in ast.walk(tree) if id(n) not in exempt and is_hit(n)]
    return found


def plant(tmp_path, file, lines=(), at=1, swap=None):
    """Copy the package under ``tmp_path``, replace in its ``file`` the one ``swap[0]`` by
    ``swap[1]``, append ``lines`` after two blank lines, and return the copy with the
    ``file:line`` of ``lines[at]``."""
    copy = tmp_path / "nuclei3d"
    shutil.copytree(SRC, copy)
    target = copy / file
    text = target.read_text()
    if swap is not None:
        assert text.count(swap[0]) == 1
        text = text.replace(*swap)
    old = text.splitlines()
    target.write_text("\n".join([*old, "", "", *lines, ""]))
    return copy, f"{file}:{len(old) + 3 + at}"


def dotted(node):
    """The dotted names ``node`` reads or imports: ``a.b`` for an attribute of a plain name,
    the modules of an ``import``, and the module and each ``module.name`` of a ``from`` import."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom) and node.module:
        return [node.module] + [f"{node.module}.{alias.name}" for alias in node.names]
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
        return [f"{node.value.id}.{node.attr}"]
    return []


def uses(*names):
    """The predicate: a node reads or imports one of ``names``, or a name under one."""
    return lambda node: any(n == m or n.startswith(m + ".") for n in dotted(node) for m in names)


def _names(node):
    """The names and attribute names read anywhere in ``node``."""
    return {getattr(n, "id", None) or getattr(n, "attr", None) for n in ast.walk(node)}


def raises(stmts, errors):
    """Whether ``stmts`` raise one of ``errors``, named anywhere in the raised call's callee."""
    return any(
        isinstance(r, ast.Raise) and r.exc is not None
        and _names(getattr(r.exc, "func", r.exc)) & errors
        for stmt in stmts for r in ast.walk(stmt)
    )


def compares(test, ops, operand=lambda o: True):
    """Whether ``test`` holds a comparison by one of ``ops`` with an operand ``operand`` accepts."""
    return any(
        isinstance(c, ast.Compare) and any(isinstance(op, ops) for op in c.ops)
        and any(operand(o) for o in (c.left, *c.comparators))
        for c in ast.walk(test)
    )


def isinstance_test(test, kinds):
    """Whether ``test`` calls ``isinstance`` with a class argument that names one of ``kinds``."""
    return any(
        isinstance(c, ast.Call) and getattr(c.func, "id", None) == "isinstance"
        and len(c.args) == 2 and _names(c.args[1]) & kinds
        for c in ast.walk(test)
    )


def test_no_bare_np_unique():
    """``np.unique`` only with a ``return_*`` argument.

    A bare ``np.unique`` takes a hash path on numpy >= 2.3 that is several
    times slower than sorting on label volumes; with ``return_counts=True``
    it sorts, as ``LabelVolume.id_counts`` and ``core.pair_counts`` call it.
    """
    bare = hits(SRC, lambda n: isinstance(n, ast.Call) and uses("np.unique", "numpy.unique")(n.func)
                and not any((k.arg or "").startswith("return_") for k in n.keywords))
    assert not bare, f"bare np.unique call(s): {', '.join(bare)}"


def int32_range(node):
    """``np.iinfo(np.int32)``, a shift by 31 bits (``<< 31``, ``>> 31``) or ``2**31``."""
    iinfo = (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "iinfo"
        and node.args
        and isinstance(node.args[0], ast.Attribute)
        and node.args[0].attr == "int32"
    )
    bits = isinstance(node, ast.BinOp) and isinstance(node.right, ast.Constant) and (
        (isinstance(node.op, (ast.LShift, ast.RShift)) and node.right.value == 31)
        or (
            isinstance(node.op, ast.Pow) and node.right.value == 31
            and isinstance(node.left, ast.Constant) and node.left.value == 2
        )
    )
    return iinfo or bits


def test_int32_label_range_decided_in_core_only():
    """``np.iinfo(np.int32)``, ``<< 31``, ``>> 31`` and ``2**31`` appear only in ``core.py``.

    ``LabelVolume`` converts labels to int32 and refuses an ID past that
    range, and ``core.pair_counts`` packs two such IDs into one int64 key; no
    other module checks, casts or packs the range again.
    """
    found = hits(SRC, int32_range, skip="core.py")
    assert not found, f"int32 ID range used outside core.py: {', '.join(found)}"


@pytest.mark.parametrize(
    "line",
    [
        "keys = a.astype(np.int64) << 31 | b",
        "hi = keys >> 31",
        "lo = keys & (2**31 - 1)",
        "top = np.iinfo(np.int32).max",
    ],
)
def test_int32_range_rule_catches_a_planted_use(tmp_path, line):
    copy, where = plant(tmp_path, "metrics.py", ["def _planted(a, b, keys):", f"    {line}"])
    assert hits(copy, int32_range, skip="core.py") == [where]


def isfinite_uses_outside_owner(src):
    """Uses of ``np.isfinite`` in the package under ``src`` outside ``core.check_finite``."""
    return hits(src, uses("np.isfinite", "numpy.isfinite"), owners=[("core.py", "check_finite")])


def test_array_finiteness_has_one_owner():
    """``np.isfinite`` appears only in ``core.check_finite``.

    ``Volume``, ``TopographicMap`` and ``io.check_detections`` refuse a
    non-real dtype and a non-finite float through it, with one message form
    each; scalars are checked with ``math.isfinite``.
    """
    found = isfinite_uses_outside_owner(SRC)
    assert not found, f"np.isfinite outside core.check_finite: {', '.join(found)}"


@pytest.mark.parametrize(
    "file,line",
    [
        ("postproc.py", "return np.isfinite(values).all()"),
        ("io.py", "return all(numpy.isfinite(values))"),
        ("core.py", "return np.isfinite(values)"),
        ("losses.py", "from numpy import isfinite"),
    ],
)
def test_finiteness_rule_catches_a_planted_use(tmp_path, file, line):
    copy, where = plant(tmp_path, file, ["def _planted(values):", f"    {line}"])
    assert isfinite_uses_outside_owner(copy) == [where]


def test_structuring_element_built_in_core_only():
    """``generate_binary_structure`` appears only in ``core.py``.

    ``core`` owns face adjacency (``face_slices``, ``face_neighbours`` and
    ``components``); no other module builds its own structuring element.
    """
    name = "generate_binary_structure"
    found = hits(SRC, lambda n: getattr(n, "attr", None) == name
                 or isinstance(n, ast.alias) and n.name == name, skip="core.py")
    assert not found, f"generate_binary_structure outside core.py: {', '.join(found)}"


LABELLING = uses("ndi.label", "ndimage.label", "scipy.ndimage.label", "scipy.sparse")


def test_connected_components_have_one_owner():
    """No ``ndi.label`` and no ``scipy.sparse`` in the package.

    ``core.components`` labels 6-connected components with work that grows
    with the foreground; ``ndi.label`` scans the whole volume. Importing
    ``scipy.sparse.csgraph`` adds about 10 MiB of resident memory.
    """
    found = hits(SRC, LABELLING)
    assert not found, f"ndi.label or scipy.sparse in the package: {', '.join(found)}"


@pytest.mark.parametrize(
    "line",
    [
        "lab, n = ndi.label(mask)",
        "from scipy.ndimage import label",
        "from scipy.sparse.csgraph import connected_components as cc",
        "import scipy.sparse",
        "from scipy import sparse",
    ],
)
def test_labelling_rule_catches_a_planted_use(tmp_path, line):
    copy, where = plant(tmp_path, "postproc.py", ["def _planted(mask):", f"    {line}"])
    assert hits(copy, LABELLING) == [where]


def shape_refusals_outside_owner(src):
    """``if`` statements in the package under ``src``, outside ``core.check_same_shape``,
    that compare a ``.shape`` with ``!=`` and raise ``ShapeMismatchError`` in their body."""
    def reads_shape(operand):
        return any(isinstance(a, ast.Attribute) and a.attr == "shape" for a in ast.walk(operand))

    return hits(
        src, lambda n: isinstance(n, ast.If) and compares(n.test, ast.NotEq, reads_shape)
        and raises(n.body, {"ShapeMismatchError"}), owners=[("core.py", "check_same_shape")],
    )


def test_shape_agreement_has_one_owner():
    """Only ``core.check_same_shape`` refuses two shapes that differ.

    Every comparison of a prediction with its ground truth, or of a loss
    input with its target, rests on one rule and one message form, which
    names both sides and their shapes.
    """
    found = shape_refusals_outside_owner(SRC)
    assert not found, f"shape refusal outside core.check_same_shape: {', '.join(found)}"


@pytest.mark.parametrize(
    "test,raiser",
    [
        ("a.shape != b.shape", "ShapeMismatchError"),
        ("a.ndim != 4 or a.shape[1:] != b.shape", "errors.ShapeMismatchError"),
    ],
)
def test_shape_rule_catches_a_planted_refusal(tmp_path, test, raiser):
    planted = ["def _planted(a, b):", f"    if {test}:", f'        raise {raiser}("differ")']
    copy, where = plant(tmp_path, "losses.py", planted)
    assert shape_refusals_outside_owner(copy) == [where]


def test_no_scipy_spatial():
    """``scipy.spatial`` is not imported anywhere in the package.

    Importing it alone adds about 11.3 MiB of resident memory to every
    process that imports ``nuclei3d``; nearest-center queries use plain
    numpy distance tables instead (see ``targets.encode_gauss``).
    """
    found = hits(SRC, uses("scipy.spatial"))
    assert not found, (
        f"scipy.spatial used at {', '.join(found)}: importing it adds about "
        "11.3 MiB RSS to every process that imports nuclei3d"
    )


def calls(name):
    """The predicate: a node calls a function or method named ``name``."""
    return lambda node: isinstance(node, ast.Call) and name == (
        node.func.attr if isinstance(node.func, ast.Attribute) else getattr(node.func, "id", None)
    )


def gaussian_calls_outside_owner(src):
    """Calls of ``gaussian_filter`` anywhere, or of ``gaussian_filter1d`` outside
    ``phantom._smooth``, in the package source under ``src``."""
    return hits(src, calls("gaussian_filter")) + hits(
        src, calls("gaussian_filter1d"), owners=[("phantom.py", "_smooth")]
    )


def test_gaussian_smoothing_has_one_owner():
    """Gaussian smoothing runs only in ``phantom._smooth``.

    ``_smooth`` is bit-identical to ``ndi.gaussian_filter`` and chooses
    scipy's or numpy's z and y passes by plane size; no other code calls
    scipy's Gaussian filters.
    """
    found = gaussian_calls_outside_owner(SRC)
    assert not found, f"Gaussian filter called outside phantom._smooth: {', '.join(found)}"


def test_gaussian_owner_rule_catches_a_planted_call(tmp_path):
    planted = ["def _blur(x):", "    return ndi.gaussian_filter1d(x, 1.0)"]
    copy, where = plant(tmp_path, "targets.py", planted)
    assert gaussian_calls_outside_owner(copy) == [where]


def config_fields(src):
    """The field names of ``postproc.PostprocConfig``, read from the source under ``src``."""
    config = next(
        node for node in dict(modules(src))["postproc.py"].body
        if isinstance(node, ast.ClassDef) and node.name == "PostprocConfig"
    )
    return [node.target.id for node in config.body if isinstance(node, ast.AnnAssign)]


def grid_keys_and_config_fields(src):
    """``sweep.GRID_KEYS``, with ``dilate`` spelled ``dilate_result``, and the field
    names of ``postproc.PostprocConfig`` after ``variant``, read from the source under ``src``."""
    grid_keys = next(
        ast.literal_eval(node.value) for node in dict(modules(src))["sweep.py"].body
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["GRID_KEYS"]
    )
    return [{"dilate": "dilate_result"}.get(k, k) for k in grid_keys], config_fields(src)[1:]


def test_grid_keys_name_postproc_config_fields_in_order():
    """``sweep.GRID_KEYS`` follows ``PostprocConfig``'s fields after ``variant``.

    The sweep builds each grid point's config positionally from the grid
    values in ``GRID_KEYS`` order, and reads each table row back from the
    config's fields in the same order.
    """
    keys, fields = grid_keys_and_config_fields(SRC)
    assert keys == fields, f"GRID_KEYS {keys} do not follow PostprocConfig fields {fields}"


def test_grid_key_rule_catches_swapped_fields(tmp_path):
    seed, fg = "    seed_threshold: float = 0.0\n", "    foreground_threshold: float = 0.0\n"
    copy, _ = plant(tmp_path, "postproc.py", swap=(seed + fg, fg + seed))
    keys, fields = grid_keys_and_config_fields(copy)
    assert keys != fields and sorted(keys) == sorted(fields)


def cli_restatements(src):
    """What ``cli.py`` under ``src`` restates of the library: ``add_argument`` calls that
    pass a literal ``default=``, and the ``segment`` option dests if they are not
    ``PostprocConfig``'s field names plus ``logits``."""
    found = []
    parser = None  # the subparser that the statements in order add arguments to
    segment_dests = []
    for node in ast.walk(dict(modules(src))["cli.py"]):
        if not isinstance(node, (ast.Assign, ast.Expr)) or not isinstance(node.value, ast.Call):
            continue
        call = node.value
        method = getattr(call.func, "attr", None)
        if method == "add_parser":
            parser = call.args[0].value
        if method != "add_argument":
            continue
        keywords = {k.arg: k.value for k in call.keywords}
        try:
            ast.literal_eval(keywords["default"])
            found.append(f"cli.py:{call.lineno}: literal default")
        except (KeyError, ValueError):
            pass
        flags = [a.value for a in call.args if a.value.startswith("--")]
        if parser == "segment" and flags:
            dest = keywords.get("dest")
            segment_dests.append(dest.value if dest else flags[0][2:].replace("-", "_"))
    if sorted(segment_dests) != sorted(config_fields(src) + ["logits"]):
        found.append(f"segment option dests {segment_dests}")
    return found


def test_cli_restates_no_library_default_or_field_name():
    """``cli.py`` leaves defaults to the library and names options after its fields.

    An unset option is not passed on, so ``PostprocConfig`` and
    ``encode_bundle`` supply their own defaults; ``_cmd_segment`` builds the
    config from the ``segment`` options by field name.
    """
    found = cli_restatements(SRC)
    assert not found, f"cli.py restates the library: {', '.join(found)}"


@pytest.mark.parametrize(
    "old,new,fault",
    [
        ('"--seed-threshold", type=float)', '"--seed-threshold", type=float, default=0.0)',
         "literal default"),
        ('dest="foreground_threshold"', 'dest="fg_threshold"', "segment option dests"),
    ],
)
def test_cli_rule_catches_a_planted_restatement(tmp_path, old, new, fault):
    copy, _ = plant(tmp_path, "cli.py", swap=(old, new))
    found = cli_restatements(copy)
    assert len(found) == 1 and fault in found[0]


VOLUME_KINDS = {"Volume", "LabelVolume", "TargetBundle", "TopographicMap"}
VOLUME_REFUSALS = {"ChannelCountError", "ShapeMismatchError", "TypeError"}


def volume_refusals_outside_owner(src):
    """``if`` statements in the package under ``src``, outside ``core.check_volume``, that test
    ``isinstance`` on a volume kind or read a channel count (``.channels``, ``.with_cpv``) and
    raise a ``ChannelCountError``, ``ShapeMismatchError`` or ``TypeError`` in their own branches.

    ``TargetBundle.__post_init__`` may read a channel count: its variant-layout check names
    the layout of the variant, which no other function refuses.
    """
    def refusal(test):
        # an ``elif`` is an ``if`` of its own, visited in turn
        return lambda n: isinstance(n, ast.If) and test(n.test) and raises(
            n.body + ([] if [type(s) for s in n.orelse] == [ast.If] else n.orelse), VOLUME_REFUSALS
        )

    owner, layout = ("core.py", "check_volume"), ("targets.py", "TargetBundle", "__post_init__")
    kinds = hits(src, refusal(lambda test: isinstance_test(test, VOLUME_KINDS)), owners=[owner])
    counts = hits(src, refusal(lambda test: _names(test) & {"channels", "with_cpv"}),
                  owners=[owner, layout])
    return list(dict.fromkeys(kinds + counts))


def test_volume_arguments_have_one_owner():
    """Only ``core.check_volume`` refuses a volume argument of the wrong kind or channel count.

    Every such refusal is a ``ChannelCountError`` with one message form, which names the
    role, channel count and kind asked for and the type or channel count given.
    """
    found = volume_refusals_outside_owner(SRC)
    assert not found, f"volume refusal outside core.check_volume: {', '.join(found)}"


@pytest.mark.parametrize(
    "test,raiser",
    [
        ("not isinstance(v, Volume)", "TypeError"),
        ("not isinstance(v, (LabelVolume, TopographicMap))", "ShapeMismatchError"),
        ("v.channels != 3", "errors.ChannelCountError"),
        ("not v.with_cpv", "ChannelCountError"),
    ],
)
def test_volume_rule_catches_a_planted_refusal(tmp_path, test, raiser):
    planted = ["def _planted(v):", f"    if {test}:", f'        raise {raiser}("wrong volume")']
    copy, where = plant(tmp_path, "metrics.py", planted)
    assert volume_refusals_outside_owner(copy) == [where]


def test_volume_rule_names_an_else_branch_refusal(tmp_path):
    planted = [
        "def _planted(v):", "    if isinstance(v, LabelVolume):", "        return 1",
        "    elif isinstance(v, Volume):", "        return 2", "    else:",
        "        raise TypeError(type(v))",
    ]
    copy, where = plant(tmp_path, "io.py", planted, at=3)
    assert volume_refusals_outside_owner(copy) == [where]


def choice_refusals_outside_core(src):
    """``if`` statements in the package under ``src``, outside ``core.py``, whose test holds
    a ``not in`` comparison or an ``isinstance(..., bool)`` call and whose body raises
    ``ValueError``."""
    return hits(src, lambda n: isinstance(n, ast.If) and (
        compares(n.test, ast.NotIn) or isinstance_test(n.test, {"bool"})
    ) and raises(n.body, {"ValueError"}), skip="core.py")


def test_named_choices_have_one_owner():
    """Only ``core`` refuses a value outside a set of choices.

    Every variant, seed source, read kind and on/off flag is checked by
    ``core.check_choice``, with one message form:
    ``<key> must be <choice> or <choice> ..., got <value>``.
    """
    found = choice_refusals_outside_core(SRC)
    assert not found, f"choice refusal outside core: {', '.join(found)}"


@pytest.mark.parametrize(
    "test,raiser",
    [
        ("variant not in VARIANTS", "ValueError"),
        ("v is not None and v.seed_source not in ('main', 'cpv')", "ValueError"),
        ("not isinstance(v, bool)", "ValueError"),
        ("not isinstance(v, (bool, np.bool_))", "builtins.ValueError"),
    ],
)
def test_choice_rule_catches_a_planted_refusal(tmp_path, test, raiser):
    planted = ["def _planted(v, variant):", f"    if {test}:", f'        raise {raiser}("bad")']
    copy, where = plant(tmp_path, "postproc.py", planted)
    assert choice_refusals_outside_core(copy) == [where]


def _limit(operand):
    """Whether ``operand`` is a number literal, negated or not, or an UPPER_CASE name."""
    if isinstance(operand, ast.UnaryOp) and isinstance(operand.op, ast.USub):
        operand = operand.operand
    return (isinstance(operand, ast.Name) and operand.id.isupper()) or (
        isinstance(operand, ast.Constant) and type(operand.value) in (int, float)
    )


def bound_refusals_outside_core(src):
    """``if`` statements in the package under ``src``, outside ``core.py``, whose test orders
    (``<``, ``<=``, ``>``, ``>=``) a value against a number literal or an UPPER_CASE name and
    whose body raises ``ValueError``."""
    order = (ast.Lt, ast.LtE, ast.Gt, ast.GtE)
    return hits(src, lambda n: isinstance(n, ast.If) and compares(n.test, order, _limit)
                and raises(n.body, {"ValueError"}), skip="core.py")


def test_number_bounds_have_one_owner():
    """Only ``core.check_number`` refuses a number outside its bounds.

    Every lower bound (``ge``, ``gt``) and strict upper bound (``lt``), such as
    an IoU threshold in (0, 1) or a smoothing sigma below ``2**56``, is checked
    there, with one message form that names every bound:
    ``<key> must be a finite number > 0 and < 1, got <value>``.
    """
    found = bound_refusals_outside_core(SRC)
    assert not found, f"number bound refused outside core.check_number: {', '.join(found)}"


@pytest.mark.parametrize(
    "test",
    ["x >= LIMIT", "not 0 < t < 1", "x < -1.5", "t > _MAX_SIGMA or t < 0"],
)
def test_bound_rule_catches_a_planted_refusal(tmp_path, test):
    planted = ["def _planted(x, t):", f"    if {test}:", '        raise ValueError("out of range")']
    copy, where = plant(tmp_path, "sweep.py", planted)
    assert bound_refusals_outside_core(copy) == [where]


def leftovers(src):
    """Unused imports, and private module-level names (``_x``) that nothing in the package
    under ``src`` reads. ``__init__.py`` is left out: its imports are re-exports."""
    trees = dict(modules(src))
    read = set()  # names the package reads: loaded, as an attribute or imported from a module
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    found = []
    for name, tree in trees.items():
        if name == "__init__.py":
            continue
        loaded = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        loaded |= {  # the names in ``__all__``
            elt.value for node in tree.body if isinstance(node, ast.Assign)
            and [getattr(t, "id", None) for t in node.targets] == ["__all__"]
            for elt in node.value.elts
        }
        for node in tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                bound = [(alias.asname or alias.name).split(".")[0] for alias in node.names]
                unused = [b for b in bound if b not in loaded]
            else:
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                    defined = [node.name]
                elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                    defined = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
                else:
                    continue
                unused = [
                    d for d in defined if d.startswith("_") and not d.startswith("__") and d not in read
                ]
            found += [f"{name}:{node.lineno}: {u}" for u in unused]
    return found


def test_no_unused_import_or_private_name():
    """No module imports a name it never reads, or defines a private module-level name
    (``_x``) that nothing in the package reads.

    A helper left behind when its last caller goes, or the import it needed, is dead code.
    """
    found = leftovers(SRC)
    assert not found, f"unused import or private name: {', '.join(found)}"


@pytest.mark.parametrize(
    "planted,name",
    [
        (["import os"], "os"),
        (["from .core import check_finite as _finite"], "_finite"),
        (["def _main_data(pred, cfg):", "    return pred"], "_main_data"),
        (["_SCALE = 2.0"], "_SCALE"),
    ],
)
def test_leftover_rule_catches_a_planted_leftover(tmp_path, planted, name):
    copy, where = plant(tmp_path, "postproc.py", planted, at=0)
    assert leftovers(copy) == [f"{where}: {name}"]


THREADS = uses("threading", "concurrent", "multiprocessing")


def test_only_the_caller_draws():
    """The package starts no thread or process: it imports no ``threading``,
    ``concurrent`` or ``multiprocessing``.

    ``perturb_target`` draws its noise on the calling thread, channel by
    channel, so the noise is the stream of one whole-volume draw whatever the
    thread count, and no pool outlives or interleaves with a call.
    """
    found = hits(SRC, THREADS)
    assert not found, f"thread or process import(s): {', '.join(found)}"


@pytest.mark.parametrize(
    "line",
    [
        "from concurrent.futures import ThreadPoolExecutor",
        "import concurrent.futures",
        "import threading",
        "from multiprocessing import Pool",
        "import multiprocessing.pool as mp",
    ],
)
def test_thread_rule_catches_a_planted_import(tmp_path, line):
    copy, where = plant(tmp_path, "phantom.py", ["def _planted():", f"    {line}"])
    assert hits(copy, THREADS) == [where]
