"""A packet's 5-tuple is fixed once it is built.

``Packet.flow`` is computed in ``__post_init__`` and read by every switch
and endpoint on the path, so it is exact only while no code stores to
``src``, ``dst``, ``sport``, ``dport`` or ``proto`` on a packet after
construction.  A reply is a new packet (``Packet.reply_shell``).

Types are not known statically, so the guard flags every store to one of
those names on anything but ``self`` (``packet.dport = 9``,
``setattr(packet, "src", ...)``), and every store to them on ``self``
inside ``class Packet``.  Other classes may keep attributes of the same
names on themselves.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
FLOW_FIELDS = frozenset(("src", "dst", "sport", "dport", "proto"))
SETATTRS = ("setattr", "__setattr__")


def _stored(target: ast.expr):
    """The attribute nodes a store target writes, through tuple unpacking."""
    if isinstance(target, (ast.Tuple, ast.List)):
        for element in target.elts:
            yield from _stored(element)
    elif isinstance(target, ast.Starred):
        yield from _stored(target.value)
    elif isinstance(target, ast.Attribute):
        yield target


def _is_self(node: ast.expr) -> bool:
    return isinstance(node, ast.Name) and node.id == "self"


def _stores(tree: ast.AST, in_packet: bool = False):
    """Line numbers of flow-field stores under ``tree``."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.ClassDef):
            yield from _stores(node, in_packet or node.name == "Packet")
            continue
        targets = []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        for target in targets:
            for attr in _stored(target):
                if attr.attr in FLOW_FIELDS and (in_packet or not _is_self(attr.value)):
                    yield attr.lineno
        if (
            isinstance(node, ast.Call)
            and len(node.args) >= 2
            and isinstance(node.args[1], ast.Constant)
            and node.args[1].value in FLOW_FIELDS
            and (
                (isinstance(node.func, ast.Name) and node.func.id in SETATTRS)
                or (isinstance(node.func, ast.Attribute) and node.func.attr in SETATTRS)
            )
        ):
            yield node.lineno
        yield from _stores(node, in_packet)


def _flow_field_stores(path: Path, root: Path = SRC) -> list:
    tree = ast.parse(path.read_text(), filename=str(path))
    return [f"{path.relative_to(root)}:{line}" for line in sorted(set(_stores(tree)))]


def test_no_packet_flow_field_is_reassigned():
    found = [site for path in sorted(SRC.rglob("*.py")) for site in _flow_field_stores(path)]
    assert found == [], f"Packet.flow is fixed at creation; build a new packet: {found}"


def test_guard_sees_a_flow_field_store(tmp_path):
    module = tmp_path / "model.py"
    module.write_text(
        "class Channel:\n"
        "    def __init__(self, src, dst):\n"
        "        self.src = src\n"
        "        self.dst, self.proto = dst, 'udp'\n"
        "def steer(packet, path):\n"
        "    packet.sport = path.port\n"
        "    packet.ttl -= 1\n"
        "    packet.dport += 1\n"
        "    (packet.src, packet.size_bytes) = ('a', 64)\n"
        "    setattr(packet, 'dst', 'b')\n"
        "    object.__setattr__(packet, 'proto', 'tcp')\n"
        "    setattr(packet, 'payload', None)\n"
        "class Packet:\n"
        "    def retarget(self, dst):\n"
        "        self.dst = dst\n"
        "        self.created_ns = 0\n"
    )
    assert _flow_field_stores(module, tmp_path) == [
        f"model.py:{line}" for line in (6, 8, 9, 10, 11, 15)
    ]
