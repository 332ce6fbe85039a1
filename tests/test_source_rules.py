"""Rules on the package source that no behavioural test would catch."""

import ast
import shutil
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "nuclei3d"


def test_no_bare_np_unique():
    """``np.unique`` only with a ``return_*`` argument.

    A bare ``np.unique`` takes a hash path on numpy >= 2.3 that is several
    times slower than sorting on label volumes; distinct IDs come from
    ``core.id_counts`` or ``LabelVolume.ids()`` instead.
    """
    bare = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "unique"
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id in ("np", "numpy")
                and not any((k.arg or "").startswith("return_") for k in node.keywords)
            ):
                bare.append(f"{path.name}:{node.lineno}")
    assert not bare, f"bare np.unique call(s): {', '.join(bare)}"


def int32_range_uses(src):
    """Uses of the int32 ID range outside ``core.py`` in the package under ``src``:
    ``np.iinfo(np.int32)``, a shift by 31 bits (``<< 31``, ``>> 31``) and ``2**31``."""
    found = []
    for path in sorted(Path(src).glob("*.py")):
        if path.name == "core.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
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
            if iinfo or bits:
                found.append(f"{path.name}:{node.lineno}")
    return found


def test_int32_label_range_decided_in_core_only():
    """``np.iinfo(np.int32)``, ``<< 31``, ``>> 31`` and ``2**31`` appear only in ``core.py``.

    ``LabelVolume`` converts labels to int32 and refuses an ID past that
    range, and ``core.pair_counts`` packs two such IDs into one int64 key; no
    other module checks, casts or packs the range again.
    """
    found = int32_range_uses(SRC)
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
    copy = tmp_path / "nuclei3d"
    shutil.copytree(SRC, copy)
    target = copy / "metrics.py"
    lines = target.read_text().splitlines()
    target.write_text("\n".join(lines + ["", "", "def _planted(a, b, keys):", f"    {line}", ""]))
    assert int32_range_uses(copy) == [f"metrics.py:{len(lines) + 4}"]


def isfinite_uses_outside_owner(src):
    """Uses of ``np.isfinite`` in the package under ``src`` outside ``core.check_finite``."""
    found = []
    for path in sorted(Path(src).glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        owner = set()
        for node in tree.body:
            if path.name == "core.py" and getattr(node, "name", None) == "check_finite":
                owner = {id(n) for n in ast.walk(node)}
        for node in ast.walk(tree):
            if id(node) in owner:
                continue
            if (
                isinstance(node, ast.Attribute) and node.attr == "isfinite"
                and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")
            ) or (
                isinstance(node, ast.ImportFrom) and node.module == "numpy"
                and any(alias.name == "isfinite" for alias in node.names)
            ):
                found.append(f"{path.name}:{node.lineno}")
    return found


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
    copy = tmp_path / "nuclei3d"
    shutil.copytree(SRC, copy)
    target = copy / file
    lines = target.read_text().splitlines()
    target.write_text("\n".join(lines + ["", "", "def _planted(values):", f"    {line}", ""]))
    assert isfinite_uses_outside_owner(copy) == [f"{file}:{len(lines) + 4}"]


def test_structuring_element_built_in_core_only():
    """``generate_binary_structure`` appears only in ``core.py``.

    ``core`` owns face adjacency (``face_slices``, ``face_neighbours`` and
    ``components``); no other module builds its own structuring element.
    """
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "core.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if (isinstance(node, ast.Attribute) and node.attr == "generate_binary_structure") or (
                isinstance(node, ast.alias) and node.name == "generate_binary_structure"
            ):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"generate_binary_structure outside core.py: {', '.join(found)}"


def labelling_calls(src):
    """Uses of scipy's ``label`` and imports of ``scipy.sparse`` in the package under ``src``."""
    found = []
    for path in sorted(Path(src).glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                names = [node.module] + [f"{node.module}.{alias.name}" for alias in node.names]
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                names = [f"{node.value.id}.{node.attr}"]
            else:
                continue
            if any(
                n in ("ndi.label", "ndimage.label", "scipy.ndimage.label", "scipy.sparse")
                or n.startswith("scipy.sparse.")
                for n in names
            ):
                found.append(f"{path.name}:{node.lineno}")
    return found


def test_connected_components_have_one_owner():
    """No ``ndi.label`` and no ``scipy.sparse`` in the package.

    ``core.components`` labels 6-connected components with work that grows
    with the foreground; ``ndi.label`` scans the whole volume. Importing
    ``scipy.sparse.csgraph`` adds about 10 MiB of resident memory.
    """
    found = labelling_calls(SRC)
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
    copy = tmp_path / "nuclei3d"
    shutil.copytree(SRC, copy)
    target = copy / "postproc.py"
    lines = target.read_text().splitlines()
    target.write_text("\n".join(lines + ["", "", "def _planted(mask):", f"    {line}", ""]))
    assert labelling_calls(copy) == [f"postproc.py:{len(lines) + 4}"]


def shape_refusals_outside_owner(src):
    """``if`` statements in the package under ``src``, outside ``core.check_same_shape``,
    that compare a ``.shape`` with ``!=`` and raise ``ShapeMismatchError`` in their body."""
    found = []
    for path in sorted(Path(src).glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        owner = set()
        for node in tree.body:
            if path.name == "core.py" and getattr(node, "name", None) == "check_same_shape":
                owner = {id(n) for n in ast.walk(node)}
        for node in ast.walk(tree):
            if not isinstance(node, ast.If) or id(node) in owner:
                continue
            compares_shape = any(
                isinstance(c, ast.Compare)
                and any(isinstance(op, ast.NotEq) for op in c.ops)
                and any(
                    isinstance(a, ast.Attribute) and a.attr == "shape"
                    for operand in (c.left, *c.comparators) for a in ast.walk(operand)
                )
                for c in ast.walk(node.test)
            )
            raised = (
                r.exc.func for stmt in node.body for r in ast.walk(stmt)
                if isinstance(r, ast.Raise) and isinstance(r.exc, ast.Call)
            )
            raises = any(
                "ShapeMismatchError" in (getattr(f, "id", None), getattr(f, "attr", None)) for f in raised
            )
            if compares_shape and raises:
                found.append(f"{path.name}:{node.lineno}")
    return found


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
    copy = tmp_path / "nuclei3d"
    shutil.copytree(SRC, copy)
    target = copy / "losses.py"
    lines = target.read_text().splitlines()
    planted = ["def _planted(a, b):", f"    if {test}:", f'        raise {raiser}("differ")']
    target.write_text("\n".join(lines + ["", ""] + planted + [""]))
    assert shape_refusals_outside_owner(copy) == [f"losses.py:{len(lines) + 4}"]


def test_no_scipy_spatial():
    """``scipy.spatial`` is not imported anywhere in the package.

    Importing it alone adds about 11.3 MiB of resident memory to every
    process that imports ``nuclei3d``; nearest-center queries use plain
    numpy distance tables instead (see ``targets.encode_gauss``).
    """
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                names = [node.module] + [f"{node.module}.{alias.name}" for alias in node.names]
            elif isinstance(node, ast.Attribute):
                names = [f"{node.value.id}.{node.attr}"] if isinstance(node.value, ast.Name) else []
            else:
                continue
            if any(n == "scipy.spatial" or n.startswith("scipy.spatial.") for n in names):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, (
        f"scipy.spatial used at {', '.join(found)}: importing it adds about "
        "11.3 MiB RSS to every process that imports nuclei3d"
    )


def gaussian_calls_outside_owner(src):
    """Calls of ``gaussian_filter`` anywhere, or of ``gaussian_filter1d`` outside
    ``phantom._smooth``, in the package source under ``src``."""
    found = []
    for path in sorted(Path(src).glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        allowed = set()
        for node in tree.body:
            if path.name == "phantom.py" and getattr(node, "name", None) == "_smooth":
                allowed = {id(n) for n in ast.walk(node)}
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name == "gaussian_filter" or (name == "gaussian_filter1d" and id(node) not in allowed):
                found.append(f"{path.name}:{node.lineno}")
    return found


def test_gaussian_smoothing_has_one_owner():
    """Gaussian smoothing runs only in ``phantom._smooth``.

    ``_smooth`` is bit-identical to ``ndi.gaussian_filter`` and chooses
    scipy's or numpy's z and y passes by plane size; no other code calls
    scipy's Gaussian filters.
    """
    found = gaussian_calls_outside_owner(SRC)
    assert not found, f"Gaussian filter called outside phantom._smooth: {', '.join(found)}"


def test_gaussian_owner_rule_catches_a_planted_call(tmp_path):
    copy = tmp_path / "nuclei3d"
    shutil.copytree(SRC, copy)
    target = copy / "targets.py"
    lines = target.read_text().splitlines()
    target.write_text("\n".join(lines + ["", "", "def _blur(x):", "    return ndi.gaussian_filter1d(x, 1.0)", ""]))
    assert gaussian_calls_outside_owner(copy) == [f"targets.py:{len(lines) + 4}"]


def _body(src, name):
    return ast.parse((Path(src) / name).read_text(), filename=name).body


def config_fields(src):
    """The field names of ``postproc.PostprocConfig``, read from the source under ``src``."""
    config = next(
        node for node in _body(src, "postproc.py")
        if isinstance(node, ast.ClassDef) and node.name == "PostprocConfig"
    )
    return [node.target.id for node in config.body if isinstance(node, ast.AnnAssign)]


def grid_keys_and_config_fields(src):
    """``sweep.GRID_KEYS``, with ``dilate`` spelled ``dilate_result``, and the field
    names of ``postproc.PostprocConfig`` after ``variant``, read from the source under ``src``."""
    grid_keys = next(
        ast.literal_eval(node.value) for node in _body(src, "sweep.py")
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
    copy = tmp_path / "nuclei3d"
    shutil.copytree(SRC, copy)
    target = copy / "postproc.py"
    seed, fg = "    seed_threshold: float = 0.0\n", "    foreground_threshold: float = 0.0\n"
    text = target.read_text()
    assert seed + fg in text
    target.write_text(text.replace(seed + fg, fg + seed))
    keys, fields = grid_keys_and_config_fields(copy)
    assert keys != fields and sorted(keys) == sorted(fields)


def cli_restatements(src):
    """What ``cli.py`` under ``src`` restates of the library: ``add_argument`` calls that
    pass a literal ``default=``, and the ``segment`` option dests if they are not
    ``PostprocConfig``'s field names plus ``logits``."""
    found = []
    parser = None  # the subparser that the statements in order add arguments to
    segment_dests = []
    for node in ast.walk(ast.parse((Path(src) / "cli.py").read_text(), filename="cli.py")):
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
    copy = tmp_path / "nuclei3d"
    shutil.copytree(SRC, copy)
    target = copy / "cli.py"
    text = target.read_text()
    assert text.count(old) == 1
    target.write_text(text.replace(old, new))
    found = cli_restatements(copy)
    assert len(found) == 1 and fault in found[0]


VOLUME_KINDS = {"Volume", "LabelVolume", "TargetBundle", "TopographicMap"}
VOLUME_REFUSALS = {"ChannelCountError", "ShapeMismatchError", "TypeError"}


def _names(node):
    """The names and attribute names read anywhere in ``node``."""
    return {getattr(n, "id", None) or getattr(n, "attr", None) for n in ast.walk(node)}


def volume_refusals_outside_owner(src):
    """``if`` statements in the package under ``src``, outside ``core.check_volume``, that test
    ``isinstance`` on a volume kind or read a channel count (``.channels``, ``.with_cpv``) and
    raise a ``ChannelCountError``, ``ShapeMismatchError`` or ``TypeError`` in their own branches.

    ``TargetBundle.__post_init__`` may read a channel count: its variant-layout check names
    the layout of the variant, which no other function refuses.
    """
    found = []
    for path in sorted(Path(src).glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        owner, layout = set(), set()
        for node in ast.walk(tree):
            if path.name == "core.py" and getattr(node, "name", None) == "check_volume":
                owner = {id(n) for n in ast.walk(node)}
            if path.name == "targets.py" and getattr(node, "name", None) == "TargetBundle":
                init = next(n for n in node.body if getattr(n, "name", None) == "__post_init__")
                layout = {id(n) for n in ast.walk(init)}
        for node in ast.walk(tree):
            if not isinstance(node, ast.If) or id(node) in owner:
                continue
            kind_test = any(
                isinstance(c, ast.Call) and getattr(c.func, "id", None) == "isinstance"
                and len(c.args) == 2 and _names(c.args[1]) & VOLUME_KINDS
                for c in ast.walk(node.test)
            )
            count_test = id(node) not in layout and _names(node.test) & {"channels", "with_cpv"}
            # an ``elif`` is an ``if`` of its own, visited in turn
            branches = node.body + ([] if [type(s) for s in node.orelse] == [ast.If] else node.orelse)
            raises = any(
                isinstance(r, ast.Raise) and r.exc is not None
                and _names(getattr(r.exc, "func", r.exc)) & VOLUME_REFUSALS
                for stmt in branches for r in ast.walk(stmt)
            )
            if (kind_test or count_test) and raises:
                found.append(f"{path.name}:{node.lineno}")
    return found


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
    copy = tmp_path / "nuclei3d"
    shutil.copytree(SRC, copy)
    target = copy / "metrics.py"
    lines = target.read_text().splitlines()
    planted = ["def _planted(v):", f"    if {test}:", f'        raise {raiser}("wrong volume")']
    target.write_text("\n".join(lines + ["", ""] + planted + [""]))
    assert volume_refusals_outside_owner(copy) == [f"metrics.py:{len(lines) + 4}"]


def test_volume_rule_names_an_else_branch_refusal(tmp_path):
    copy = tmp_path / "nuclei3d"
    shutil.copytree(SRC, copy)
    target = copy / "io.py"
    lines = target.read_text().splitlines()
    planted = [
        "def _planted(v):", "    if isinstance(v, LabelVolume):", "        return 1",
        "    elif isinstance(v, Volume):", "        return 2", "    else:",
        "        raise TypeError(type(v))",
    ]
    target.write_text("\n".join(lines + ["", ""] + planted + [""]))
    assert volume_refusals_outside_owner(copy) == [f"io.py:{len(lines) + 6}"]
