"""DataflowCircuit container: construction, validation, rewiring, clone."""

from collections import deque

import pytest

from repro.circuit import (
    DataflowCircuit,
    EagerFork,
    ElasticBuffer,
    FunctionalUnit,
    OpSpec,
    Sequence,
    Sink,
)
from repro.errors import CircuitError
from repro.frontend.kernels import KERNEL_NAMES
from repro.pipeline import TECHNIQUES, prepare_circuit


def two_unit_circuit():
    c = DataflowCircuit("t")
    src = c.add(Sequence("src", [1.0]))
    sink = c.add(Sink("sink"))
    return c, src, sink


class TestAddAndConnect:
    def test_duplicate_unit_name_rejected(self):
        c = DataflowCircuit("t")
        c.add(Sink("x"))
        with pytest.raises(CircuitError, match="duplicate"):
            c.add(Sink("x"))

    def test_connect_creates_channel(self):
        c, src, sink = two_unit_circuit()
        ch = c.connect(src, 0, sink, 0, name="lbl")
        assert ch.src.unit == "src" and ch.dst.unit == "sink"
        assert c.out_channel(src, 0) is ch
        assert c.in_channel(sink, 0) is ch
        assert "lbl" in ch.label()

    def test_double_drive_output_rejected(self):
        c, src, _ = two_unit_circuit()
        s2 = c.add(Sink("s2"))
        c.connect(src, 0, s2, 0)
        s3 = c.add(Sink("s3"))
        with pytest.raises(CircuitError, match="fork"):
            c.connect(src, 0, s3, 0)

    def test_double_drive_input_rejected(self):
        c, src, sink = two_unit_circuit()
        c.connect(src, 0, sink, 0)
        src2 = c.add(Sequence("src2", [2.0]))
        with pytest.raises(CircuitError, match="already driven"):
            c.connect(src2, 0, sink, 0)

    def test_port_out_of_range(self):
        c, src, sink = two_unit_circuit()
        with pytest.raises(CircuitError, match="out of range"):
            c.connect(src, 1, sink, 0)

    def test_connect_unknown_unit(self):
        c, src, _ = two_unit_circuit()
        other = Sink("ghost")
        with pytest.raises(CircuitError, match="not in circuit"):
            c.connect(src, 0, other, 0)

    def test_fresh_name_unique(self):
        c = DataflowCircuit("t")
        names = {c.fresh_name("buf") for _ in range(5)}
        assert len(names) == 5
        c.add(Sink(c.fresh_name("buf")))
        assert c.fresh_name("buf") not in c.units


class TestValidation:
    def test_valid_circuit_passes(self):
        c, src, sink = two_unit_circuit()
        c.connect(src, 0, sink, 0)
        c.validate()

    def test_undriven_input_reported(self):
        c, src, sink = two_unit_circuit()
        with pytest.raises(CircuitError, match="undriven"):
            c.validate()

    def test_unconsumed_output_reported(self):
        c = DataflowCircuit("t")
        src = c.add(Sequence("src", [1.0]))
        with pytest.raises(CircuitError, match="unconsumed"):
            c.validate()


class TestRewiring:
    def test_redirect_dst(self):
        c, src, sink = two_unit_circuit()
        ch = c.connect(src, 0, sink, 0)
        s2 = c.add(Sink("s2"))
        c.redirect_dst(ch, s2, 0)
        assert ch.dst.unit == "s2"
        assert c.in_channel(sink, 0) is None
        assert c.in_channel(s2, 0) is ch

    def test_redirect_src(self):
        c, src, sink = two_unit_circuit()
        ch = c.connect(src, 0, sink, 0)
        src2 = c.add(Sequence("src2", [2.0]))
        c.redirect_src(ch, src2, 0)
        assert ch.src.unit == "src2"
        assert c.out_channel(src, 0) is None

    def test_redirect_to_occupied_port_rejected(self):
        c, src, sink = two_unit_circuit()
        ch = c.connect(src, 0, sink, 0)
        src2 = c.add(Sequence("src2", [2.0]))
        s2 = c.add(Sink("s2"))
        ch2 = c.connect(src2, 0, s2, 0)
        with pytest.raises(CircuitError):
            c.redirect_dst(ch2, sink, 0)

    def test_remove_unit_requires_disconnection(self):
        c, src, sink = two_unit_circuit()
        ch = c.connect(src, 0, sink, 0)
        with pytest.raises(CircuitError, match="still connected"):
            c.remove_unit(src)
        c.disconnect(ch)
        c.remove_unit(src)
        assert "src" not in c

    def test_disconnect_frees_both_ports(self):
        c, src, sink = two_unit_circuit()
        ch = c.connect(src, 0, sink, 0)
        c.disconnect(ch)
        assert c.out_channel(src, 0) is None
        assert c.in_channel(sink, 0) is None
        c.connect(src, 0, sink, 0)  # re-usable


class TestViews:
    def test_successors_predecessors(self):
        c = DataflowCircuit("t")
        src = c.add(Sequence("src", [1.0]))
        fork = c.add(EagerFork("f", 2))
        s1, s2 = c.add(Sink("s1")), c.add(Sink("s2"))
        c.connect(src, 0, fork, 0)
        c.connect(fork, 0, s1, 0)
        c.connect(fork, 1, s2, 0)
        assert {u.name for u in c.successors(fork)} == {"s1", "s2"}
        assert [u.name for u in c.predecessors(fork)] == ["src"]

    def test_stats_counts_types(self):
        c = DataflowCircuit("t")
        c.add(Sink("a"))
        c.add(Sink("b"))
        c.add(FunctionalUnit("m", "fmul"))
        stats = c.stats()
        assert stats["Sink"] == 2
        assert stats["FunctionalUnit"] == 1
        assert stats["_units"] == 3


# --------------------------------------------------------------------------
# clone: every small configuration's prepared circuit

CONFIGS = [
    (kernel, technique, style)
    for style in ("bb", "fast-token")
    for kernel in KERNEL_NAMES
    for technique in TECHNIQUES
]


def _immutable(value) -> bool:
    if isinstance(value, (tuple, frozenset)):
        return all(map(_immutable, value))
    return type(value) in (type(None), bool, int, float, str)


@pytest.fixture(scope="module")
def prepared_circuits():
    """The prepared circuit of each of the 84 small configurations."""
    return {
        (k, t, s): prepare_circuit(k, t, style=s, scale="small").circuit
        for k, t, s in CONFIGS
    }


def _state(circuit):
    """Everything a change to a clone must leave alone: the fingerprint,
    every unit's attributes (``meta`` included) and the port wiring."""
    return (
        circuit.fingerprint(),
        [repr(vars(u)) for u in circuit.units.values()],
        [
            ([ch.cid for ch in circuit.in_channels(u)],
             [ch.cid for ch in circuit.out_channels(u)])
            for u in circuit.units.values()
        ],
    )


def _mutate_containers(unit) -> int:
    """Change every container attribute of ``unit``; returns how many."""
    changed = 0
    for value in vars(unit).values():
        if isinstance(value, dict):
            value["mutated"] = 1
        elif isinstance(value, set):
            value.add("mutated")
        elif isinstance(value, (list, deque)):
            value.append("mutated")
        else:
            continue
        changed += 1
    return changed


class TestClone:
    def test_clone_has_the_fingerprint_and_continues_fresh_names(
            self, prepared_circuits):
        for config, circuit in prepared_circuits.items():
            twin = circuit.clone()
            assert twin.fingerprint() is not None, config
            assert twin.fingerprint() == circuit.fingerprint(), config
            prefixes = sorted(circuit._name_counters) + ["fresh"]
            assert ([twin.fresh_name(p) for p in prefixes]
                    == [circuit.fresh_name(p) for p in prefixes]), config

    def test_changing_unit_containers_leaves_the_original(
            self, prepared_circuits):
        for config, circuit in prepared_circuits.items():
            before = _state(circuit)
            twin = circuit.clone()
            assert sum(map(_mutate_containers, twin.units.values())) >= \
                len(twin.units), config  # every unit has ``meta``
            assert _state(circuit) == before, config
            assert twin.fingerprint() != before[0], config

    def test_changing_channel_attrs_leaves_the_original(
            self, prepared_circuits):
        for config, circuit in prepared_circuits.items():
            before = _state(circuit)
            twin = circuit.clone()
            for ch in twin.channels:
                ch.attrs["mutated"] = 1
            assert _state(circuit) == before, config
            assert twin.fingerprint() != before[0], config

    def test_splicing_a_buffer_leaves_the_original(self, prepared_circuits):
        for config, circuit in prepared_circuits.items():
            before = _state(circuit)
            twin = circuit.clone()
            ch = twin.channels[0]
            dst, port = twin.units[ch.dst.unit], ch.dst.index
            buf = twin.add(ElasticBuffer(twin.fresh_name("probe"), slots=2))
            twin.redirect_dst(ch, buf, 0)
            twin.connect(buf, 0, dst, port, width=ch.width)
            twin.validate()
            assert _state(circuit) == before, config
            assert twin.fingerprint() != before[0], config
            circuit.validate()

    def test_no_unit_attribute_nests_a_mutable_container(
            self, prepared_circuits):
        """A one-level copy is a full copy only while this holds."""
        for config, circuit in prepared_circuits.items():
            for unit in circuit.units.values():
                for attr, value in vars(unit).items():
                    if isinstance(value, dict):
                        items = [*value.keys(), *value.values()]
                    elif isinstance(value, (list, set, deque)):
                        items = list(value)
                    else:
                        assert _immutable(value) or isinstance(
                            value, OpSpec), (config, unit.name, attr)
                        continue
                    assert all(map(_immutable, items)), \
                        (config, unit.name, attr, value)
