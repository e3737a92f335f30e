"""Source hygiene: every name a module imports is used in that module,
every function, class or method the package defines is read by the
package, a demo or the benchmark, only the modules that sample import
``random``, no module draws through a ``Random`` method whose stream
may change between interpreters, only ``poly`` reads ``Poly.terms`` (packed keys, and
coefficients that a read may build), only ``Poly.terms`` reads the dict
cache behind it, only the integer kernels read the triples that
``field`` stores, and only ``poly`` reads its packed-key helpers.

Package ``__init__.py`` files are exempt, because their imports are the
package's re-exports.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "cayleycert"
READERS = (ROOT / "demos", ROOT / "perfbench")
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def unused_imports(path: Path) -> list:
    """``file:line name`` for each imported name the module never reads."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name == "*" or (isinstance(node, ast.ImportFrom)
                                         and node.module == "__future__"):
                    continue
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        # a name read only in a string annotation ("GroupSpec") is used
        ann = getattr(node, "annotation", None) or getattr(node, "returns", None)
        if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
            used.update(n.id for n in ast.walk(ast.parse(ann.value, mode="eval"))
                        if isinstance(n, ast.Name))
    return [f"{path.name}:{line} {name}"
            for name, line in sorted(imported.items(), key=lambda kv: kv[1])
            if name not in used]


def test_no_unused_imports():
    files = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    assert files
    found = [hit for p in files for hit in unused_imports(p)]
    assert not found, "unused imports: " + ", ".join(found)


def test_checker_flags_an_unused_import(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text("from fractions import Fraction\nimport os\nimport re\n\n"
                   "def f(x: \"Fraction\") -> int:\n    return re.sub\n")
    assert unused_imports(mod) == ["mod.py:2 os"]


def _reads(tree) -> tuple:
    """(names, attributes) a module reads: its bare names, and its
    attribute names with the dotted parts of its strings other than
    docstrings (the benchmark wraps by string)."""
    docs = {id(node.body[0].value) for node in ast.walk(tree)
            if isinstance(node, (ast.Module, *DEFINITIONS)) and node.body
            and isinstance(node.body[0], ast.Expr)}
    names, attrs = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            attrs.add(node.attr)
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in docs):
            attrs.update(node.value.split("."))
    return names, attrs


def unread_definitions(src: Path, readers) -> list:
    """``file:line name`` for each function, class or method defined in a
    module of ``src`` that no module of ``src`` (``__init__.py`` aside) and
    no file of the ``readers`` directories reads.  A method, a function
    defined directly in a class body, is read only through an attribute
    or a string: a bare name equal to it is some other binding.  Dunders
    are exempt."""
    trees = {p: ast.parse(p.read_text(), filename=str(p))
             for p in sorted(src.glob("*.py")) if p.name != "__init__.py"}
    names, attrs = set(), set()
    for tree in (*trees.values(), *(ast.parse(p.read_text(), filename=str(p))
                                     for d in readers for p in sorted(d.glob("*.py")))):
        n, a = _reads(tree)
        names |= n
        attrs |= a
    methods = {id(node) for tree in trees.values() for cls in ast.walk(tree)
               if isinstance(cls, ast.ClassDef) for node in cls.body
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}
    found = [(p.name, node.lineno, node.name) for p, tree in trees.items()
             for node in ast.walk(tree)
             if isinstance(node, DEFINITIONS)
             and node.name not in (attrs if id(node) in methods else names | attrs)
             and not (node.name.startswith("__") and node.name.endswith("__"))]
    return [f"{name}:{line} {what}" for name, line, what in sorted(found)]


def test_every_definition_is_read():
    found = unread_definitions(SRC, READERS)
    assert not found, "definitions nothing reads: " + ", ".join(found)


MODULE = '''"""unread is only named in docstrings."""

class Box:
    def __len__(self):
        return 0

    def shown(self):
        return helper()

    def hidden(self):
        """hidden"""

def helper():
    return 1

def unread():
    return Box().shown()

def by_string():
    return 2
'''


def test_checker_flags_an_unread_definition(tmp_path):
    src, demos = tmp_path / "src", tmp_path / "demos"
    src.mkdir()
    demos.mkdir()
    (src / "__init__.py").write_text("from .mod import unread, Box\n")
    (src / "mod.py").write_text(MODULE)
    (demos / "demo.py").write_text('WRAPPED = ("mod", "Box.by_string")\n')
    assert unread_definitions(src, [demos]) == ["mod.py:10 hidden", "mod.py:16 unread"]


def test_checker_does_not_count_a_local_as_a_method_read(tmp_path):
    # the local ``norm`` of ``size`` is not a read of the method Box.norm
    (tmp_path / "mod.py").write_text(
        "class Box:\n    def norm(self):\n        return 1\n\n\n"
        "def size(x):\n    norm = x * x\n    return norm\n\n\nSIZE = size(2), Box\n")
    assert unread_definitions(tmp_path, []) == ["mod.py:2 norm"]


# The one module that draws random samples: ratmap, whose ``sample`` loop
# runs the spot checks and the witness searches, classical's spot check
# included.
SAMPLERS = {"ratmap"}


def random_importers(src: Path) -> list:
    """Names of the modules of ``src`` that import ``random``."""
    found = []
    for p in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(p.read_text(), filename=str(p))):
            names = ([a.name for a in node.names] if isinstance(node, ast.Import)
                     else [node.module] if isinstance(node, ast.ImportFrom) else [])
            if "random" in names:
                found.append(p.stem)
                break
    return found


def test_only_the_samplers_import_random():
    assert set(random_importers(SRC)) <= SAMPLERS


def test_checker_flags_a_random_import(tmp_path):
    (tmp_path / "ratmap.py").write_text("import random\n")
    (tmp_path / "surfaces.py").write_text("from random import Random\n")
    (tmp_path / "poly.py").write_text("from .field import random_rational\n")
    found = random_importers(tmp_path)
    assert found == ["ratmap", "surfaces"]
    assert set(found) - SAMPLERS == {"surfaces"}


# The draws whose streams CPython does not fix across versions; every
# integer draw goes through ``field.below``, on ``getrandbits`` alone.
RANDOM_DRAWS = {"randint", "randrange", "choice", "choices", "shuffle", "uniform"}


def interpreter_draws(src: Path) -> list:
    """``file:line`` for each use of a :data:`RANDOM_DRAWS` attribute in ``src``."""
    found = []
    for p in sorted(src.glob("*.py")):
        tree = ast.parse(p.read_text(), filename=str(p))
        found += [f"{p.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr in RANDOM_DRAWS]
    return found


def test_no_draw_depends_on_the_interpreter():
    assert interpreter_draws(SRC) == []


def test_checker_flags_an_interpreter_draw(tmp_path):
    (tmp_path / "classical.py").write_text(
        "def half(rng):\n    return rng.getrandbits(3) + rng.randint(1, 2)\n")
    (tmp_path / "field.py").write_text("pick = random.Random(1).choice\n")
    assert interpreter_draws(tmp_path) == ["classical.py:2", "field.py:1"]


# ``field.below`` alone reads ``getrandbits``, so it is the one owner of the
# rule that turns bits into a bounded int.
def bit_draws(src: Path) -> list:
    """``file:line`` for each ``getrandbits`` attribute or imported name in
    a module of ``src`` other than field.py."""
    found = []
    for p in sorted(src.glob("*.py")):
        if p.name == "field.py":
            continue
        tree = ast.parse(p.read_text(), filename=str(p))
        found += [f"{p.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr == "getrandbits"
                  or isinstance(node, ast.alias) and node.name == "getrandbits"]
    return found


def test_only_field_reads_getrandbits():
    assert bit_draws(SRC) == []


def test_checker_flags_a_bit_draw(tmp_path):
    (tmp_path / "field.py").write_text("def below(rng):\n    return rng.getrandbits(3)\n")
    (tmp_path / "classical.py").write_text(
        "def half(rng):\n    bits = rng.getrandbits\n    return bits(3)\n")
    (tmp_path / "ratmap.py").write_text("from random import getrandbits\n")
    assert bit_draws(tmp_path) == ["classical.py:2", "ratmap.py:1"]


# ``Poly.terms`` is keyed by packed ints, and reading it builds every
# coefficient of a Poly the kernel made; outside poly.py the one read of
# exponents is ``Poly.items()``, and ``Poly.term_count()`` counts terms.
def terms_reads(src: Path) -> list:
    """``file:line`` for each use of a ``.terms`` attribute, ``len(p.terms)``
    included, in a module of ``src`` other than poly.py."""
    found = []
    for p in sorted(src.glob("*.py")):
        if p.name == "poly.py":
            continue
        tree = ast.parse(p.read_text(), filename=str(p))
        found += [f"{p.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr == "terms"]
    return sorted(found)


def test_only_poly_reads_packed_terms():
    found = terms_reads(SRC)
    assert not found, "reads of .terms outside poly.py: " + ", ".join(found)


def test_checker_flags_a_terms_read(tmp_path):
    (tmp_path / "poly.py").write_text("def f(p):\n    return list(p.terms)\n")
    (tmp_path / "mod.py").write_text(
        "def f(p):\n"
        "    n = len(p.num.terms)\n"
        "    for e in p.terms:\n"
        "        n += p.terms[e]\n"
        "    return n + len(p.terms.keys()) + len(list(p.terms.items()))\n")
    assert terms_reads(tmp_path) == ["mod.py:2", "mod.py:3", "mod.py:4", "mod.py:5",
                                     "mod.py:5"]


# A Poly stores one form, its integer form; ``_terms`` only caches the
# coefficient dict that the ``Poly.terms`` property builds from it, so no
# other code in poly.py reads it as a second view.
def cache_reads(path: Path) -> list:
    """Lines of ``path`` that read a ``._terms`` attribute outside the
    ``terms`` method of class ``Poly``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    allowed = {id(node) for cls in tree.body
               if isinstance(cls, ast.ClassDef) and cls.name == "Poly"
               for f in cls.body if isinstance(f, ast.FunctionDef) and f.name == "terms"
               for node in ast.walk(f)}
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "_terms"
            and id(node) not in allowed]


def test_only_poly_terms_reads_the_dict_cache():
    found = cache_reads(SRC / "poly.py")
    assert not found, f"reads of ._terms outside Poly.terms in poly.py, lines {found}"


def test_checker_flags_a_cache_read(tmp_path):
    path = tmp_path / "poly.py"
    path.write_text(
        "class Poly:\n"
        "    @property\n"
        "    def terms(self):\n"
        "        return self._terms\n"
        "    def is_zero(self):\n"
        "        return not self._terms\n"
        "class RatFunc:\n"
        "    def terms(self):\n"
        "        return self.num._terms\n"
        "def _eq(p, q):\n"
        "    _set(p, '_terms', None)\n"
        "    return p._terms == q._terms\n")
    assert sorted(cache_reads(path)) == [6, 9, 12, 12]


# A RatFunc keeps its index tuples per composition layout in one write-once
# slot, ``_layouts``, derived from its integer forms; ``RatFunc._index`` is
# its one reader, so nothing else sees the slot as a second view.
def layout_cache_reads(src: Path) -> list:
    """``file:line`` for each read of a ``._layouts`` attribute in ``src``
    outside the ``_index`` method of class ``RatFunc`` in poly.py."""
    found = []
    for p in sorted(src.glob("*.py")):
        tree = ast.parse(p.read_text(), filename=str(p))
        allowed = {id(node) for cls in tree.body if p.name == "poly.py"
                   and isinstance(cls, ast.ClassDef) and cls.name == "RatFunc"
                   for f in cls.body if isinstance(f, ast.FunctionDef) and f.name == "_index"
                   for node in ast.walk(f)}
        found += [f"{p.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr == "_layouts"
                  and id(node) not in allowed]
    return sorted(found)


def test_only_ratfunc_index_reads_the_layout_cache():
    found = layout_cache_reads(SRC)
    assert not found, "reads of ._layouts outside RatFunc._index: " + ", ".join(found)


def test_checker_flags_a_layout_cache_read(tmp_path):
    (tmp_path / "poly.py").write_text(
        "class RatFunc:\n"
        "    def _index(self, layout):\n"
        "        return self._layouts\n"
        "    def compose(self):\n"
        "        return self._layouts\n"
        "class ComposePlan:\n"
        "    def _index(self, f):\n"
        "        return f._layouts\n")
    (tmp_path / "ratmap.py").write_text("def f(m):\n    return m.components[0]._layouts\n")
    assert layout_cache_reads(tmp_path) == ["poly.py:5", "poly.py:8", "ratmap.py:2"]


# How a QuadExt is stored, the triple (p, q, n), is known to ``field`` and
# read by the integer kernels of ``matrices`` and ``poly`` alone.
TRIPLE_HELPERS = {"_scalar_triple", "_make", "_quotient"}
TRIPLE_READERS = {"field", "matrices", "poly"}


def triple_reads(src: Path) -> list:
    """``file:line name`` for each import or attribute read of a triple
    helper in a module of ``src`` other than the TRIPLE_READERS."""
    found = []
    for p in sorted(src.glob("*.py")):
        if p.stem in TRIPLE_READERS:
            continue
        for node in ast.walk(ast.parse(p.read_text(), filename=str(p))):
            names = ([a.name for a in node.names] if isinstance(node, ast.ImportFrom)
                     else [node.attr] if isinstance(node, ast.Attribute) else [])
            found += [f"{p.name}:{node.lineno} {n}" for n in names if n in TRIPLE_HELPERS]
    return found


def test_only_the_integer_kernels_read_field_triples():
    found = triple_reads(SRC)
    assert not found, "triple helpers read outside field, matrices and poly: " + ", ".join(found)


def test_checker_flags_a_triple_read(tmp_path):
    (tmp_path / "poly.py").write_text("from .field import _make, _quotient\n")
    (tmp_path / "classical.py").write_text("from .field import QuadExt, _make, conj\n")
    (tmp_path / "su3.py").write_text(
        "from . import field\n\ndef f(x):\n    return field._scalar_triple(x)\n")
    assert triple_reads(tmp_path) == ["classical.py:1 _make", "su3.py:4 _scalar_triple"]


# How a monomial is packed into an int, and the wrapper that makes a Poly
# of an integer form, are poly.py's own: other modules build Polys through
# its constructors and read exponents through ``Poly.items()``.
PACKED_KEY_HELPERS = {"_pack", "_wrap", "_exponents", "_ceiling", "WIDTH"}


def packed_key_reads(src: Path) -> list:
    """``file:line name`` for each import or attribute read of a packed-key
    helper in a module of ``src`` other than poly.py."""
    found = []
    for p in sorted(src.glob("*.py")):
        if p.name == "poly.py":
            continue
        for node in ast.walk(ast.parse(p.read_text(), filename=str(p))):
            names = ([a.name for a in node.names] if isinstance(node, ast.ImportFrom)
                     else [node.attr] if isinstance(node, ast.Attribute) else [])
            found += [f"{p.name}:{node.lineno} {n}" for n in names
                      if n in PACKED_KEY_HELPERS]
    return sorted(found)


def test_only_poly_reads_packed_keys():
    found = packed_key_reads(SRC)
    assert not found, "packed-key helpers read outside poly.py: " + ", ".join(found)


def test_checker_flags_a_packed_key_read(tmp_path):
    (tmp_path / "poly.py").write_text("WIDTH = 16\n\ndef _wrap(v, f):\n    return _pack(f)\n")
    (tmp_path / "classical.py").write_text("from .poly import Poly, WIDTH, _wrap\n")
    (tmp_path / "matrices.py").write_text(
        "from . import poly\n\ndef f(n):\n    return poly._ceiling(n) + poly._exponents\n")
    (tmp_path / "su3.py").write_text("from .poly import Poly\n\n_pack = Poly.items\n")
    assert packed_key_reads(tmp_path) == ["classical.py:1 WIDTH", "classical.py:1 _wrap",
                                          "matrices.py:4 _ceiling", "matrices.py:4 _exponents"]
