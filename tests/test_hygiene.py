"""Source-level guards.

Every public name, optional parameter and dataclass field of ``satkit``
has a user outside the tests, every defaulted dataclass field a setter
there, no parameter is None at every such call, every private function
has a reference in ``src/``, and every import a use. A user is code in
``src/``, ``demos/`` or a non-test file of ``benchmarks/``; names are
matched as written.
"""
import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = {p: ast.parse(p.read_text())
           for p in sorted((ROOT / "src" / "satkit").glob("*.py"))}
USER_FILES = {p: ast.parse(p.read_text())
              for p in [*(ROOT / "demos").glob("*.py"),
                        *(ROOT / "benchmarks").glob("*.py")]
              if not p.name.startswith("test_")}
# Kept without a reader outside the tests: ill_conditioned is the one
# observable of mmse_multicast's conditioning guard.
NO_READER_ALLOWED = {"precoding.PrecodeMatrix.ill_conditioned"}
# Kept at their defaults outside the tests: imux and omux are None in the
# filter-free AWGN chain whose SINR has a closed form, and jitter_aware is
# False in the comparison of blind against jitter-aware SPD training.
NO_SETTER_ALLOWED = {"predistortion.ChainConfig.imux",
                     "predistortion.ChainConfig.omux",
                     "predistortion.ChainConfig.jitter_aware"}


def read_names(node):
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))}


def users():
    """(key, node) per top-level statement of src and per user file.

    Keys are per statement, so that a definition's own body is no user.
    """
    for p, tree in MODULES.items():
        for stmt in tree.body:
            yield (p, stmt.lineno), stmt
    for p, tree in USER_FILES.items():
        yield (p, 0), tree


def test_every_public_name_has_a_caller_outside_the_tests():
    names = {key: read_names(node) for key, node in users()}
    uncalled = {f"{p.stem}.{stmt.name}" for p, tree in MODULES.items()
                for stmt in tree.body
                if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
                and not stmt.name.startswith("_")
                and not any(stmt.name in used for key, used in names.items()
                            if key != (p, stmt.lineno))}
    assert not uncalled, sorted(uncalled)


def test_every_private_function_is_referenced_in_src():
    """Outside its own definition; a docstring mention is no reference."""
    def names(node):
        return Counter(getattr(n, "id", getattr(n, "attr", None))
                       for n in ast.walk(node))

    everywhere = sum(map(names, MODULES.values()), Counter())
    unreferenced = {f"{p.stem}.{fn.name}" for p, tree in MODULES.items()
                    for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
                    and fn.name.startswith("_") and not fn.name.endswith("__")
                    and everywhere[fn.name] == names(fn)[fn.name]}
    assert not unreferenced, sorted(unreferenced)


def public_functions():
    """(qualified name, key of its top-level statement, def, is a method)."""
    for p, tree in MODULES.items():
        for stmt in tree.body:
            key = (p, stmt.lineno)
            if isinstance(stmt, ast.FunctionDef):
                yield f"{p.stem}.{stmt.name}", key, stmt, False
            if isinstance(stmt, ast.ClassDef):
                yield from ((f"{p.stem}.{stmt.name}.{fn.name}", key, fn, True)
                            for fn in stmt.body
                            if isinstance(fn, ast.FunctionDef))


def test_every_optional_parameter_is_passed_outside_the_tests():
    calls = [(key, c) for key, node in users() for c in ast.walk(node)
             if isinstance(c, ast.Call)]
    unpassed = set()
    for name, key, fn, is_method in public_functions():
        if "._" in name:
            continue
        a = fn.args
        positional = [x.arg for x in a.posonlyargs + a.args][int(is_method):]
        named = set(positional) | {x.arg for x in a.kwonlyargs}
        mine = [c for k, c in calls if k != key and fn.name == getattr(
            c.func, "id", getattr(c.func, "attr", None))]
        keywords = {k.arg for c in mine for k in c.keywords}  # None: a ** splat
        n_args = max((len(c.args) for c in mine), default=0)
        optional = set(positional[max(n_args,
                                      len(positional) - len(a.defaults)):])
        optional |= {x.arg for x, d in zip(a.kwonlyargs, a.kw_defaults)
                     if d is not None}
        if a.kwarg and not keywords - named:
            optional.add("**" + a.kwarg.arg)
        if None not in keywords:
            unpassed |= {f"{name}({x})" for x in optional - keywords}
    assert not unpassed, sorted(unpassed)


def public_dataclasses():
    """(qualified name, key of its statement, class) per public dataclass."""
    for p, tree in MODULES.items():
        for cls in tree.body:
            if (isinstance(cls, ast.ClassDef) and not cls.name.startswith("_")
                    and any("dataclass" in read_names(d)
                            for d in cls.decorator_list)):
                yield f"{p.stem}.{cls.name}", (p, cls.lineno), cls


def test_every_dataclass_field_is_read_outside_the_tests():
    reads = {n.attr for _, node in users() for n in ast.walk(node)
             if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}
    unread = {f"{name}.{f.target.id}" for name, _, cls in public_dataclasses()
              for f in cls.body if isinstance(f, ast.AnnAssign)
              and f.target.id not in reads}
    assert unread == NO_READER_ALLOWED


def test_every_defaulted_dataclass_field_is_set_outside_the_tests():
    """A call sets a field by position or keyword in a call to its class,
    or by a keyword of ``replace``. A defaulted field that no call sets
    holds one value outside the tests: its other values are test-only."""
    calls = [(key, c) for key, node in users() for c in ast.walk(node)
             if isinstance(c, ast.Call)]
    replaced = {k.arg for _, c in calls for k in c.keywords
                if getattr(c.func, "id", getattr(c.func, "attr", None))
                == "replace"}
    unset = set()
    for name, key, cls in public_dataclasses():
        fields = [f for f in cls.body if isinstance(f, ast.AnnAssign)]
        mine = [c for k, c in calls if k != key and cls.name == getattr(
            c.func, "id", getattr(c.func, "attr", None))]
        given = {k.arg for c in mine for k in c.keywords}  # None: a ** splat
        given |= {f.target.id for f in
                  fields[:max((len(c.args) for c in mine), default=0)]}
        if None not in given:
            unset |= {f"{name}.{f.target.id}" for f in fields
                      if f.value is not None
                      and f.target.id not in given | replaced}
    assert unset == NO_SETTER_ALLOWED


def test_no_unused_imports_in_src_tests_and_demos():
    files = [p for p in MODULES if p.name != "__init__.py"]
    files += [*(ROOT / "tests").glob("*.py"), *(ROOT / "demos").glob("*.py")]
    unused = []
    for p in files:
        tree = ast.parse(p.read_text())
        names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        unused += [f"{p.stem}: {alias.name}" for node in ast.walk(tree)
                   if isinstance(node, (ast.Import, ast.ImportFrom))
                   and getattr(node, "module", None) != "__future__"
                   for alias in node.names
                   if (alias.asname or alias.name.split(".")[0]) not in names]
    assert not unused


def literal_head(node):
    """A string key, or the literal text before an f-string's first field."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.JoinedStr) and isinstance(node.values[0], ast.Constant):
        return node.values[0].value
    return None


def tracer_tables():
    """The tracer's tree and its LABELS and COUNTS, as {table: {span: value}}."""
    tracer = ast.parse((ROOT / "benchmarks" / "tracer.py").read_text())
    tables = {stmt.targets[0].id: stmt.value for stmt in tracer.body
              if isinstance(stmt, ast.Assign) and getattr(
                  stmt.targets[0], "id", None) in ("LABELS", "COUNTS")}
    return tracer, {name: {k.value: v for k, v in zip(d.keys, d.values)}
                    for name, d in tables.items()}


def test_names_the_benchmark_reads_are_public_functions():
    """The traced benchmark finds spans by ``module.function`` name.

    Its tracer wraps the public functions of satkit's modules, and
    ``per_layer`` in ``benchmarks/run.py`` indexes the span tables by
    name, so a renamed or deleted function ends a traced run in a
    ``KeyError``. The names are the span keys of ``per_layer``, the keys
    of the tracer's ``LABELS`` and ``COUNTS``, and the functions the
    tracer reads as ``package.<module>.<name>``.
    """
    run = ast.parse((ROOT / "benchmarks" / "run.py").read_text())
    per_layer = next(f for f in ast.walk(run) if isinstance(f, ast.FunctionDef)
                     and f.name == "per_layer")
    spans = {literal_head(n.slice) for n in ast.walk(per_layer)
             if isinstance(n, ast.Subscript) and isinstance(n.value, ast.Name)
             and n.value.id in ("self_s", "calls")}
    tracer, tables = tracer_tables()
    read = {f"{n.value.attr}.{n.attr}" for n in ast.walk(tracer)
            if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Attribute)
            and getattr(n.value.value, "id", None) == "package"}
    # every source names some function, so a parse that finds none fails
    assert None not in spans and spans and read
    assert set(tables) == {"LABELS", "COUNTS"} and all(tables.values())
    wanted = {".".join(s.split(".")[:2])
              for s in spans.union(read, *tables.values())}
    public = {f"{p.stem}.{stmt.name}" for p, tree in MODULES.items()
              for stmt in tree.body if isinstance(stmt, ast.FunctionDef)
              and not stmt.name.startswith("_")}
    assert not wanted - public, sorted(wanted - public)


def test_arguments_the_tracer_reads_are_parameters():
    """The tracer's LABELS and COUNTS functions read a call's bound
    arguments as ``params["name"]``, so a renamed parameter of the wrapped
    function ends a traced run in a ``KeyError``."""
    tracer, tables = tracer_tables()
    helpers = {f.name: f for f in tracer.body if isinstance(f, ast.FunctionDef)}
    functions = {f"{p.stem}.{stmt.name}": stmt.args
                 for p, tree in MODULES.items() for stmt in tree.body
                 if isinstance(stmt, ast.FunctionDef)}
    missing, n_read = set(), 0
    for table in tables.values():
        for span, value in table.items():
            fn = helpers.get(getattr(value, "id", None), value)
            read = {literal_head(n.slice) for n in ast.walk(fn)
                    if isinstance(n, ast.Subscript)
                    and getattr(n.value, "id", None) == "params"}
            a = functions[span]
            named = {x.arg for x in a.posonlyargs + a.args + a.kwonlyargs}
            missing |= {f"{span}({k})" for k in read - named}
            n_read += len(read)
    # pd_curve's detector, n_mc and isnr_grid_db; calibrate_threshold's n_mc
    assert n_read >= 4
    assert not missing, sorted(missing)


def test_no_parameter_is_none_at_every_call_outside_the_tests():
    """A parameter that every caller sets to the literal None (or leaves at
    a None default) holds one value: its other branch is test-only code."""
    calls = [(key, c) for key, node in users() for c in ast.walk(node)
             if isinstance(c, ast.Call)]
    always_none = set()
    for name, key, fn, is_method in public_functions():
        if "._" in name:
            continue
        a = fn.args
        positional = [x.arg for x in a.posonlyargs + a.args][int(is_method):]
        defaults = dict(zip(positional[len(positional) - len(a.defaults):],
                            a.defaults))
        defaults.update((x.arg, d) for x, d in zip(a.kwonlyargs, a.kw_defaults)
                        if d is not None)
        mine = [c for k, c in calls if k != key and fn.name == getattr(
            c.func, "id", getattr(c.func, "attr", None))
            and not any(isinstance(x, ast.Starred) for x in c.args)
            and None not in {k.arg for k in c.keywords}]
        for i, param in enumerate(positional + [x.arg for x in a.kwonlyargs]):
            given = [next((k.value for k in c.keywords if k.arg == param),
                          c.args[i] if i < len(c.args) and i < len(positional)
                          else defaults.get(param)) for c in mine]
            if given and all(isinstance(v, ast.Constant) and v.value is None
                             for v in given):
                always_none.add(f"{name}({param})")
    assert not always_none, sorted(always_none)
