"""Compiling exact layer outputs into one SystemBlocks leaf: the leaf, the
compile and its check, and the cost rule that decides when to compile."""

import gc
import json
import math
import weakref

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

import qkan
from qkan import network
from qkan import operators as ops
from qkan.block_encoding import compile_system_blocks, primitive_encoding
from qkan.errors import ContractViolationError
from qkan.readout import prepare_state_postselect, read_outputs


def random_spec(dims, degree, seed):
    rng = np.random.default_rng(seed)
    return qkan.QkanSpec(tuple(
        qkan.LayerSpec(rng.uniform(-1.0, 1.0, (degree + 1, n_in, n_out)))
        for n_in, n_out in zip(dims, dims[1:])
    ))


def tree_build(be_x, spec):
    """Every layer output as the tree `build_layer` makes, never compiled."""
    outputs = []
    for index, layer in enumerate(spec.layers):
        be_x = qkan.build_layer(be_x, layer, layer_index=index)
        outputs.append(be_x)
    return outputs


def is_compiled(be):
    return isinstance(be.op, ops.Query) and isinstance(be.op.inner, ops.SystemBlocks)


def block_diagonal_dense(blocks):
    """Dense matrix of sum_j blocks[j] (x) |j><j|, ancillas most significant."""
    systems, aux = blocks.shape[:2]
    dense = np.zeros((aux * systems, aux * systems), dtype=np.complex128)
    for j in range(systems):
        dense[j::systems, j::systems] = blocks[j]
    return dense


@pytest.mark.parametrize("a, s", [(0, 0), (1, 0), (0, 2), (2, 1), (3, 2)])
def test_system_blocks_apply_matches_the_block_diagonal_matrix(a, s):
    rng = np.random.default_rng(a * 10 + s)
    blocks = rng.normal(size=(1 << s, 1 << a, 1 << a)) + 1j * rng.normal(size=(1 << s, 1 << a, 1 << a))
    leaf = ops.SystemBlocks(blocks)
    assert (leaf.n, leaf.a, leaf.s) == (a + s, a, s)
    want = block_diagonal_dense(blocks)
    assert np.max(np.abs(leaf.dense() - want)) <= 1e-12
    assert np.max(np.abs(leaf.adjoint().dense() - want.conj().T)) <= 1e-12
    cols = rng.normal(size=(leaf.dim, 3)) + 1j * rng.normal(size=(leaf.dim, 3))
    strided = np.ascontiguousarray(cols.T).T
    assert np.max(np.abs(leaf.apply(strided) - want @ cols)) <= 1e-12


def test_system_blocks_adjoint_swaps_shared_arrays_without_a_cycle():
    blocks = np.stack([ops.random_unitary(2, np.random.default_rng(j)) for j in range(2)])
    leaf = ops.SystemBlocks(blocks, replaced_leaves=7)
    adjoint = leaf.adjoint()
    assert adjoint.blocks is leaf.adjoint_blocks and adjoint.adjoint_blocks is leaf.blocks
    assert adjoint.adjoint().blocks is leaf.blocks
    assert adjoint.replaced_leaves == 7
    assert not any(isinstance(ref, ops.SystemBlocks) for ref in gc.get_referents(leaf))
    with pytest.raises(ContractViolationError):
        ops.SystemBlocks(np.zeros((2, 2, 4)))
    with pytest.raises(ContractViolationError):
        ops.SystemBlocks(np.zeros((3, 2, 2)))


def test_compiled_layer_keeps_cost_and_describes_its_shape():
    spec = random_spec((2, 2, 1), 3, seed=1)
    be = qkan.build_layer(qkan.encode_diagonal_exact(np.array([0.3, -0.5])), spec.layers[0])
    compiled = compile_system_blocks(be)
    assert compiled.cost == be.cost
    assert (compiled.aux, compiled.system) == (be.aux, be.system)
    assert (compiled.alpha, compiled.epsilon, compiled.diagonal_flag) == (be.alpha, be.epsilon, be.diagonal_flag)
    assert np.max(np.abs(compiled.op.dense() - be.op.dense())) <= 1e-13
    # each T_r is one folded leaf: 11 leaves, of the 20 that the factors make
    assert compiled.op.leaves == 1 and be.op.leaves == 11
    assert ops.unfolded_leaves(be.op) == 20
    text = ops.describe_text(compiled.op)
    # the blocks span the live ancillas: the layout's 6 less the idle QSVT ancilla
    assert (be.num_aux, be.idle_aux) == (6, 1)
    assert text.splitlines()[1] == "  SystemBlocks n=6 a=5 s=1 replaced_leaves=11 leaves=1"
    node = ops.describe(compiled.op)["children"][0]
    assert (node["a"], node["s"], node["replaced_leaves"]) == (5, 1, 11)


def test_exact_build_stores_real_arrays():
    """Every factor of an exact network is real: its Diagonal, Dense and
    compiled SystemBlocks leaves hold float64 arrays, and a real column is
    applied in float64 throughout."""
    spec = random_spec((2, 2, 2, 1), 2, seed=5)  # 3 Chebyshev terms: a Dense state preparation
    built = qkan.build_network(qkan.encode_diagonal_exact(np.array([0.3, -0.5])), spec)
    assert is_compiled(built.layer_outputs[0])
    arrays: dict[str, list[np.ndarray]] = {}

    def walk(op):
        if isinstance(op, ops.Diagonal):
            arrays.setdefault("Diagonal", []).append(op.values)
        elif isinstance(op, ops.Dense):
            arrays.setdefault("Dense", []).append(op.matrix)
        elif isinstance(op, ops.SystemBlocks):
            arrays.setdefault("SystemBlocks", []).extend((op.blocks, op.adjoint_blocks))
        for child in ops._children(op):
            walk(child)

    walk(built.output.op)
    assert sorted(arrays) == ["Dense", "Diagonal", "SystemBlocks"]
    assert all(array.dtype == np.float64 for found in arrays.values() for array in found)
    column = np.zeros((built.output.op.dim, 1))
    column[: built.output.system_dim] = 1.0
    assert built.output.op._apply(column).dtype == np.float64
    # the readers still return complex128
    assert built.output.op.apply(column).dtype == np.complex128
    assert qkan.extract_diagonal(built.output).dtype == np.complex128
    assert read_outputs(built.output)[0].dtype == np.complex128
    assert prepare_state_postselect(built.output).amplitudes.amplitudes.dtype == np.complex128


def test_compile_check_rejects_a_tree_that_mixes_the_system_register():
    """The blocks are read and checked on the first apply, so a mixing tree
    compiles, and is rejected by its first apply, and by every later one."""
    be = qkan.build_layer(qkan.encode_diagonal_exact(np.array([0.3, -0.5])),
                          random_spec((2, 2), 1, seed=2).layers[0])
    compiled = compile_system_blocks(qkan.perturb(be, 1e-3, seed=4))
    for _ in range(2):
        with pytest.raises(ContractViolationError, match="mixes its system register"):
            qkan.extract_diagonal(compiled)
    # a rotation by 1e-9 between two system states of aux |0> is caught too,
    # by the adjoint's first apply as by the leaf's
    mixing = np.eye(4, dtype=np.complex128)
    mixing[:2, :2] = [[np.cos(1e-9), -np.sin(1e-9)], [np.sin(1e-9), np.cos(1e-9)]]
    aux, system = (("a", 1),), (("sys", 1),)
    compiled = compile_system_blocks(primitive_encoding(ops.Dense(mixing), aux, system, "u"))
    with pytest.raises(ContractViolationError, match="mixes its system register"):
        compiled.adjoint_op.apply(np.eye(4)[:, 0])
    with pytest.raises(ContractViolationError, match="mixes its system register"):
        compiled.op.dense()
    # a multiplexor over the system qubit compiles to the same matrix
    units = {j: ops.Dense(ops.random_unitary(1, np.random.default_rng(j))) for j in range(2)}
    mux = primitive_encoding(ops.Multiplexed(units, (1,), 2), aux, system, "u")
    assert np.max(np.abs(compile_system_blocks(mux).op.dense() - mux.op.dense())) <= 1e-15


def _count_applications(monkeypatch):
    """Every LinearOperator.apply call from now on, as (operator, columns)."""
    applied = []
    apply = ops.LinearOperator.apply

    def counted(op, vec, rows=None):
        applied.append((op, 1 if np.ndim(vec) == 1 else np.shape(vec)[1]))
        return apply(op, vec, rows)

    monkeypatch.setattr(ops.LinearOperator, "apply", counted)
    return applied


def test_a_compiled_encoding_that_was_never_read_keeps_its_description_and_cost(monkeypatch):
    spec = random_spec((2, 2, 1), 3, seed=1)
    be = qkan.build_layer(qkan.encode_diagonal_exact(np.array([0.3, -0.5])), spec.layers[0])
    applied = _count_applications(monkeypatch)
    compiled = compile_system_blocks(be)
    assert compiled.cost == be.cost
    text = ops.describe_text(compiled.op)
    assert text.splitlines()[1] == "  SystemBlocks n=6 a=5 s=1 replaced_leaves=11 leaves=1"
    assert ops.describe_text(compiled.adjoint_op).splitlines()[1] == text.splitlines()[1]
    assert applied == []


def test_the_leaf_and_its_adjoint_read_the_tree_once(monkeypatch):
    spec = random_spec((2, 2, 1), 3, seed=1)
    be = qkan.build_layer(qkan.encode_diagonal_exact(np.array([0.3, -0.5])), spec.layers[0])
    want, want_adjoint = be.op.dense(), be.adjoint_op.dense()
    compiled = compile_system_blocks(be)
    leaf, adjoint = compiled.op.inner, compiled.adjoint_op.inner
    applied = _count_applications(monkeypatch)
    assert np.max(np.abs(compiled.adjoint_op.dense() - want_adjoint)) <= 1e-13
    # the read: the tree applied once, to 2^a + 1 columns, and the check of the new leaf
    assert [(op, columns) for op, columns in applied if op is be.op] == [(be.op, 33)]
    assert len(applied) == 2
    assert np.max(np.abs(compiled.op.dense() - want)) <= 1e-13
    assert adjoint.blocks is leaf.adjoint_blocks and adjoint.adjoint_blocks is leaf.blocks
    assert leaf.adjoint().blocks is adjoint.blocks
    assert len(applied) == 2
    # once read, the leaf no longer keeps the tree alive
    tree = weakref.ref(be.op)
    del be, applied[:]
    gc.collect()
    assert tree() is None


def _deep_cli_config(tmp_path):
    """A 2 -> 2 -> 2 -> 1, d = 3 config with a shots readout, as the CLI reads it."""
    rng = np.random.default_rng(7)
    layers = [
        {"in": n_in, "out": n_out, "degree": 3,
         "weights": rng.uniform(-1.0, 1.0, (4, n_in, n_out)).tolist()}
        for n_in, n_out in ((2, 2), (2, 2), (2, 1))
    ]
    config = {"input": [0.3, -0.5], "layers": layers, "seed": 3,
              "readout": {"mode": "shots", "shots": 1000, "seed": 11, "delta": 0.05}}
    path = tmp_path / "deep.json"
    path.write_text(json.dumps(config))
    return str(path)


@pytest.mark.parametrize("command, applications", [("resources", 2), ("eval", 5)])
def test_cli_commands_apply_no_more_than_they_read(monkeypatch, tmp_path, capsys, command, applications):
    """`resources` applies only the LCU pair's check (P_L and P_R on e0),
    never the layer trees; `eval` adds the compile read of layer 1 and the
    readout."""
    from qkan.cli import main

    config = _deep_cli_config(tmp_path)
    applied = _count_applications(monkeypatch)
    assert main([command, "--config", config, "--no-timestamp"]) == 0
    capsys.readouterr()
    assert len(applied) == applications


@st.composite
def exact_networks(draw):
    depth = draw(st.sampled_from((1, 2, 2, 3, 3)))
    dims = tuple(draw(st.sampled_from((1, 2, 4))) for _ in range(depth + 1))
    spec = random_spec(dims, draw(st.integers(0, 3)), draw(st.integers(0, 2**16)))
    assume(qkan.analytic_cost(spec).aux_totals[-1] + spec.layers[-1].n_qubits_out <= 14)
    xs = np.random.default_rng(draw(st.integers(0, 2**16))).uniform(
        -1.0, 1.0, (draw(st.integers(1, 64)), dims[0]))
    return spec, xs


@given(exact_networks())
def test_compiled_build_matches_the_tree(network_case):
    spec, xs = network_case
    x = xs[0]
    be_x = qkan.encode_diagonal_exact(x)
    built = qkan.build_network(be_x, spec)
    trees = tree_build(be_x, spec)
    assert built.output.cost == trees[-1].cost
    assert built.output.op.leaves <= trees[-1].op.leaves
    want = qkan.extract_diagonal(trees[-1])
    assert np.max(np.abs(qkan.extract_diagonal(built.output) - want)) <= 1e-12
    # every non-last output compiled by force (within the entry cap) reads the same
    be = be_x
    for index, layer in enumerate(spec.layers):
        be = qkan.build_layer(be, layer, layer_index=index)
        if index + 1 < len(spec.layers) and (4 ** be.num_aux) << be.num_system <= network.COMPILE_MAX_ENTRIES:
            be = compile_system_blocks(be)
    assert be.cost == trees[-1].cost
    assert np.max(np.abs(qkan.extract_diagonal(be) - want)) <= 1e-12
    # the training path, over a sample register, reads every sample's tree
    got = qkan.SimulatedModel(spec, xs).outputs([spec])[0]
    for row, sample in zip(got, xs):
        tree = tree_build(qkan.encode_diagonal_exact(sample), spec)[-1]
        assert np.max(np.abs(row - qkan.extract_diagonal(tree).real)) <= 1e-12


# (dims, degree, compiled layer outputs). The comments give build plus
# extract_diagonal in ms with the tree and with layer 1 compiled (2-vCPU
# x86-64 host, one BLAS thread, minimum of 7)
COMPILE_DECISIONS = [
    ((2, 2, 2, 1), 3, (True, False)),  # deep-cli: 21.5 -> 12.8; layer 2 has a = 11
    ((2, 2, 2, 1), 2, (True, False)),  # 9.3 -> 8.1
    ((4, 2, 2, 1), 3, (True, False)),  # 32.6 -> 25.5
    ((1, 1, 1, 1), 4, (True, False)),  # 34.3 -> 10.6
    ((2, 2, 1), 3, (True,)),  # 2.26 -> 1.85
    ((2, 2, 2, 1), 1, (False, False)),  # 1.80 -> 1.98; layer 2 compiled: 33.9
    ((8, 4, 1), 2, (False,)),  # 2.60 -> 11.6
    ((4, 4, 1), 3, (False,)),  # 2.85 -> 4.64
    ((2, 2, 1), 1, (False,)),  # 0.84 -> 0.89
    ((2, 2, 1), 0, (False,)),  # 0.35 -> 0.49: the output is never applied
]


@pytest.mark.parametrize("dims, degree, expected", COMPILE_DECISIONS)
def test_cost_rule_decisions_on_the_measured_shapes(dims, degree, expected):
    spec = random_spec(dims, degree, seed=5)
    x = np.random.default_rng(6).uniform(-1.0, 1.0, dims[0])
    built = qkan.build_network(qkan.encode_diagonal_exact(x), spec)
    assert tuple(is_compiled(be) for be in built.layer_outputs) == expected + (False,)
    tree = tree_build(qkan.encode_diagonal_exact(x), spec)[-1]
    assert built.output.cost == tree.cost
    want = qkan.extract_diagonal(tree)
    assert np.max(np.abs(qkan.extract_diagonal(built.output) - want)) <= 1e-12


# (dims, degree, samples, sample qubits m, layer 1 compiled) of SimulatedModel.
# The comments give SimulatedModel.outputs per loss in ms with the tree and
# with layer 1 compiled (2-vCPU x86-64 host, one BLAS thread, minimum of 7)
TRAINING_DECISIONS = [
    ((2, 2, 2, 1), 3, 4, 2, True),  # 102.6 -> 82.7
    ((2, 2, 2, 1), 3, 64, 2, True),  # 1903 -> 1484
    ((2, 2, 2, 1), 2, 4, 2, True),  # 69.0 -> 50.3
    ((2, 2, 2, 1), 2, 64, 2, True),  # 1013 -> 599
    ((1, 1, 1, 1), 4, 4, 2, True),  # 121.9 -> 60.8
    ((1, 1, 1, 1), 4, 64, 2, True),  # 1471 -> 732
    ((2, 2, 1), 3, 64, 6, False),  # 29.4 -> 103.2: the compile applies the tree to more amplitudes than all later uses
    ((2, 2, 2), 3, 64, 6, False),  # 74.7 -> 129.1
    ((2, 2, 2), 3, 16, 4, False),  # 14.8 -> 29.1
    ((4, 2, 1), 3, 4, 2, False),  # 8.1 -> 27.1
    ((2, 2, 1), 3, 4, 2, False),  # 5.37 -> 5.30, a tie: threshold 127 against 20 leaves
]


@pytest.mark.parametrize("dims, degree, samples, m, compiled", TRAINING_DECISIONS)
def test_cost_rule_decisions_on_the_training_shapes(dims, degree, samples, m, compiled):
    spec = random_spec(dims, degree, seed=5)
    xs = np.random.default_rng(6).uniform(-1.0, 1.0, (samples, dims[0]))
    model = qkan.SimulatedModel(spec, xs)
    assert model.sample_qubits == m
    built = model.assemblers[m][0].build([spec])
    assert tuple(is_compiled(be) for be in built.layer_outputs) == (compiled,) + (False,) * (len(dims) - 2)


def test_cost_rule_declines_the_large_deep_cli_layer_and_perturbed_layers():
    spec = random_spec((2, 2, 2, 1), 3, seed=5)
    outputs = tree_build(qkan.encode_diagonal_exact(np.array([0.3, -0.5])), spec)
    second = outputs[1]
    assert (second.num_aux, second.num_system) == (11, 1)
    sites = network.later_sites(11, 1, spec.layers[2:])
    assert network.compile_threshold(11, 1, sites) == math.inf
    x = np.array([0.3, -0.5])

    def shaken(vec, name):
        return qkan.perturb(qkan.encode_diagonal_exact(vec, name=name), 1e-6, seed=len(name))

    for be_x, encoder in [
        (qkan.perturb(qkan.encode_diagonal_exact(x), 1e-6, seed=1), None),
        (qkan.encode_diagonal_exact(x), shaken),
    ]:
        built = qkan.build_network(be_x, spec, weight_encoder=encoder)
        assert all(be.epsilon > 0 and not is_compiled(be) for be in built.layer_outputs)


def test_later_sites_count_uses_and_state_shares():
    spec = random_spec((2, 2, 2, 1), 3, seed=5)
    # the guards run before DILATE. Layer 2's guard: 2 system states of the
    # 7-qubit output, one use; layer 3's guard: 2 states of 12 qubits, 6 uses
    # on a quarter each; the read: one 16-qubit column, 36 uses on a sixteenth each
    assert network.later_sites(6, 1, spec.layers[1:]) == [(1, 2 << 7), (6, (2 << 12) >> 2), (36, (1 << 16) >> 4)]
    assert network.later_sites(4, 1, random_spec((2, 2, 1), 0, seed=5).layers[1:]) == [(0, 1 << 7)]


def test_later_sites_keep_the_sample_register():
    spec = random_spec((2, 2, 2, 1), 3, seed=5)
    # m = 2 sample qubits; layer 1's output has a = 6 and the system [k = 1 | m = 2].
    # Layer 2's guard: 8 system states [1 | 2] of the 9-qubit output (before
    # DILATE), one use; SUM absorbs 1 input qubit, so layer 2's output has a = 11
    # and s = 3. Layer 3's guard: 8 states of 14 qubits, 6 uses on a quarter each;
    # layer 3's output has a = 16 and s = 2. The read: one 18-qubit column, 36 uses
    # on a sixteenth each
    assert network.later_sites(6, 3, spec.layers[1:], 2) == [
        (1, 8 << 9), (6, (8 << 14) >> 2), (36, (1 << 18) >> 4)
    ]
    # m = 6: layer 2's guard takes 8 probes with U and U^dag over the 128 states
    # of the 13-qubit output; its output (a = 11, s = 7) is read from one 18-qubit column
    wide = random_spec((2, 2, 2), 3, seed=5)
    assert network.later_sites(6, 7, wide.layers[1:], 6) == [(1, 16 << 13), (6, (1 << 18) >> 2)]


def test_later_sites_of_a_certified_output_charge_no_guard():
    # a certified output, and every later input built on it with exact weights,
    # needs no Hermiticity test: only the read is left. deep-cli's layer 1
    # (20 leaves) stays declined, its threshold rising from 4.0 to 4.2
    spec = random_spec((2, 2, 2, 1), 3, seed=5)
    guarded = network.later_sites(6, 1, spec.layers[1:])
    certified = network.later_sites(6, 1, spec.layers[1:], certified=True)
    assert certified == guarded[-1:] == [(36, (1 << 16) >> 4)]
    assert network.compile_threshold(6, 1, guarded) == pytest.approx(4.0208, abs=1e-4)
    assert network.compile_threshold(6, 1, certified) == pytest.approx(4.2043, abs=1e-4)
    # 2->2->1 d = 3 on m = 2: a tie at 127 against 20 leaves becomes never
    short = random_spec((2, 2, 1), 3, seed=5).layers[1:]
    assert network.compile_threshold(6, 3, network.later_sites(6, 3, short, 2)) == pytest.approx(127.35, abs=0.01)
    assert network.compile_threshold(6, 3, network.later_sites(6, 3, short, 2, True)) == math.inf


def test_network_assembler_charges_the_guard_of_uncertified_outputs_only(monkeypatch):
    seen = []
    later_sites = network.later_sites

    def recording(*args):
        seen.append(args[4])
        return later_sites(*args)

    monkeypatch.setattr(network, "later_sites", recording)
    spec = random_spec((2, 2, 2, 1), 3, seed=5)
    x = np.array([0.3, -0.5])
    qkan.build_network(qkan.encode_diagonal_exact(x), spec)
    assert seen == [True, True]

    def plain(vec, name):
        aux, system = (("enc", 1),), (("sys", vec.size.bit_length() - 1),)
        return primitive_encoding(ops.LabelBlocks.reflection(vec), aux, system, name, diagonal=True)

    seen.clear()
    qkan.build_network(qkan.encode_diagonal_exact(x), spec, weight_encoder=plain)
    assert seen == [False, False]
