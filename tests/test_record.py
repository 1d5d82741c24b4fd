"""The Record contract, checked through the package's own value classes:
what they relied on from @dataclass(frozen=True) still holds."""

import pickle
from fractions import Fraction

import pytest

from qturan.bounds import DensityReport
from qturan.construction import UnionGraph, VectorAssignment
from qturan.cube import LayerId, LayerSubgraph, upward_edges
from qturan.detector import CubeSubgraph, CycleWitness, PathWitness, SubcubePattern
from qturan.gf2 import GF2Vec

from helpers import induced_subgraph
from oracles import C6Obstruction

# a 6-cycle of Q_3 whose ends 0 and 4 also differ in one bit, so it is a
# valid C6- path as well
HEXAGON = (0, 1, 3, 7, 6, 4)


def test_construction_by_position_and_by_keyword():
    by_position = LayerId(16, 9)
    assert (by_position.n, by_position.r) == (16, 9)
    assert LayerId(n=16, r=9) == by_position
    assert LayerId(r=9, n=16) == by_position
    assert LayerId(16, r=9) == by_position


@pytest.mark.parametrize(
    "args, kwargs, message",
    [
        ((16,), {}, "missing arguments: 'r'"),
        ((), {}, "missing arguments: 'n', 'r'"),
        ((16, 9), {"s": 1}, "unexpected keyword argument 's'"),
        ((16,), {"n": 9}, "multiple values for argument 'n'"),
        ((16, 9, 1), {}, "takes 2 arguments but 3 were given"),
    ],
    ids=["missing", "none", "unknown", "repeated", "too many"],
)
def test_a_bad_argument_list_is_a_type_error(args, kwargs, message):
    with pytest.raises(TypeError, match=message):
        LayerId(*args, **kwargs)


@pytest.mark.parametrize(
    "make",
    [
        lambda: GF2Vec(4, 2),
        lambda: LayerId(0, 1),
        lambda: LayerId(n=3, r=4),
        lambda: VectorAssignment(2, 1, GF2Vec(0, 1), (GF2Vec(1, 1), GF2Vec(1, 1))),
        lambda: UnionGraph(3, {2: LayerSubgraph.induced(LayerId(3, 2), (), ())}),
        lambda: CycleWitness((0, 1, 3, 6)),
        lambda: PathWitness((0, 1, 3, 7, 6, 14)),
        lambda: SubcubePattern(1, (0, 1, 2)),
    ],
    ids=["GF2Vec", "LayerId", "LayerId keywords", "VectorAssignment", "UnionGraph", "CycleWitness", "PathWitness", "SubcubePattern"],
)
def test_post_init_still_checks_the_fields(make):
    with pytest.raises(ValueError):
        make()


def test_equality_is_field_wise_and_type_strict():
    assert GF2Vec(5, 4) == GF2Vec(5, 4)
    assert GF2Vec(5, 4) != GF2Vec(5, 3)
    assert LayerId(3, 2) != (3, 2)
    cycle, path = CycleWitness(HEXAGON), PathWitness(HEXAGON)
    assert cycle.vertices == path.vertices
    assert cycle != path
    assert path != cycle
    assert CycleWitness(HEXAGON) == cycle


def test_equal_records_hash_equal():
    report = dict(
        n=4, r=None, scope="union", achieved_edges=9, ambient_edges=32, ratio=Fraction(9, 32),
        bound_name="c/4", bound_value=Fraction(1, 12), passed=True,
    )
    pairs = [
        (GF2Vec(5, 4), GF2Vec(bits=5, dim=4)),
        (CycleWitness(HEXAGON), CycleWitness(tuple(HEXAGON))),
        (induced_subgraph(3, HEXAGON), induced_subgraph(3, reversed(HEXAGON))),
        (DensityReport(**report), DensityReport(*report.values())),
    ]
    for a, b in pairs:
        assert a == b and a is not b
        assert hash(a) == hash(b)
    assert len({LayerId(3, 2), LayerId(n=3, r=2), LayerId(3, 3)}) == 2


def test_fields_cannot_be_set_or_deleted():
    layer = LayerId(3, 2)
    with pytest.raises(AttributeError):
        layer.r = 3
    with pytest.raises(AttributeError):
        layer.extra = 1
    with pytest.raises(AttributeError):
        del layer.n
    assert layer == LayerId(3, 2)
    assert not hasattr(layer, "extra")


def test_repr_is_the_dataclass_text():
    assert repr(LayerId(16, 9)) == "LayerId(n=16, r=9)"
    assert repr(CycleWitness(HEXAGON)) == "CycleWitness(vertices=(0, 1, 3, 7, 6, 4))"
    obstruction = C6Obstruction(SubcubePattern(8, (0, 1, 2)), ("core",), None, None)
    assert repr(obstruction) == (
        "C6Obstruction(pattern=SubcubePattern(core=8, axes=(0, 1, 2)), "
        "failed_conditions=('core',), images=None, pigeonhole=None)"
    )
    report = DensityReport(4, None, "union", 9, 32, Fraction(9, 32), "c/4", Fraction(1, 12), True)
    assert repr(report) == (
        "DensityReport(n=4, r=None, scope='union', achieved_edges=9, ambient_edges=32, "
        "ratio=Fraction(9, 32), bound_name='c/4', bound_value=Fraction(1, 12), passed=True)"
    )


def test_a_cube_subgraph_survives_pickling():
    """verify's process pool sends the graph to its workers by pickle."""
    graph = induced_subgraph(3, HEXAGON)
    copy = pickle.loads(pickle.dumps(graph))
    assert type(copy) is CubeSubgraph
    assert copy == graph and hash(copy) == hash(graph)
    assert list(upward_edges(copy.vertices, copy.edge_masks)) == list(upward_edges(graph.vertices, graph.edge_masks))
    with pytest.raises(AttributeError):
        copy.n = 4
