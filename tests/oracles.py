"""Independent reference implementations the tests check the library against.

Everything here is deliberately written in a different style from the
package (memoized recursion, naive nested loops, explicit path
enumeration) so a bug would have to occur twice, in two shapes, to slip
through.
"""

from __future__ import annotations

import itertools
import random

from depthbench.circuits import TERMINALS, Circuit, Gate, GateKind
from depthbench.do1 import EnvState, Phase, PASS, PickChainGate, PickCircuitGate, SelectGate, env_step


def is_well_formed(gates, n_inputs: int, output: int) -> bool:
    """Whether ``Circuit(gates, n_inputs, output)`` should be accepted, decided rule by rule.

    Acyclicity is checked by peeling: repeatedly drop every gate whose
    inputs have all been dropped, and accept only if nothing is left.
    """
    n = len(gates)
    if n == 0 or output not in range(n) or n_inputs not in range(n + 1):
        return False
    if [g.id for g in gates] != list(range(n)):
        return False
    if [g.kind is GateKind.INPUT for g in gates] != [True] * n_inputs + [False] * (n - n_inputs):
        return False
    for g in gates:
        if g.kind in (GateKind.INPUT, GateKind.CONST0, GateKind.CONST1):
            arity_ok = len(g.inputs) == 0
        elif g.kind is GateKind.NOT:
            arity_ok = len(g.inputs) == 1
        else:
            arity_ok = len(g.inputs) >= 1
        if not arity_ok or any(i not in range(n) for i in g.inputs):
            return False
    left = set(range(n))
    while True:
        ready = {gid for gid in left if not left.intersection(gates[gid].inputs)}
        if not ready:
            return not left
        left -= ready


def first_fault(gates, n_inputs: int, output: int) -> str | None:
    """The ``CircuitError`` message ``Circuit(gates, n_inputs, output)`` should raise, or None if well formed.

    Rules are tried in the documented order: the three header checks, then
    gate by gate in position order (id, input block, arity, references),
    and a cycle last.  A cycle returns just the ``"cycle detected via edge"``
    prefix, since which edge is reported depends on the search order.
    """
    n = len(gates)
    if n == 0:
        return "circuit has no gates"
    if output not in range(n):
        return f"output id {output} out of range 0..{n - 1}"
    if n_inputs not in range(n + 1):
        return f"n_inputs {n_inputs} out of range"
    terminals = (GateKind.INPUT, GateKind.CONST0, GateKind.CONST1)
    for pos, g in enumerate(gates):
        name = g.kind.value
        if g.id != pos:
            return f"gate ids must be dense: position {pos} holds id {g.id}"
        if pos < n_inputs and g.kind is not GateKind.INPUT:
            return f"ids 0..{n_inputs - 1} must be INPUT gates, id {pos} is {name}"
        if pos >= n_inputs and g.kind is GateKind.INPUT:
            return f"INPUT gate {pos} outside the leading input block"
        if g.kind in terminals and len(g.inputs) > 0:
            return f"{name} gate {pos} must have no inputs"
        if g.kind is GateKind.NOT and len(g.inputs) != 1:
            return f"not gate {pos} needs exactly one input, got {len(g.inputs)}"
        if g.kind not in terminals and len(g.inputs) == 0:
            return f"{name} gate {pos} needs at least one input"
        missing = [i for i in g.inputs if i not in range(n)]
        if missing:
            return f"gate {pos} references missing gate {missing[0]}"
    if not is_well_formed(gates, n_inputs, output):
        return "cycle detected via edge"
    return None


def reaches(gates, src: int, dst: int) -> bool:
    """Whether following input edges from gate ``src`` (zero or more) arrives at gate ``dst``."""
    seen, frontier = {src}, [src]
    while frontier:
        frontier = [i for gid in frontier for i in gates[gid].inputs if i not in seen]
        seen.update(frontier)
    return dst in seen


def recursive_eval(circuit: Circuit, bits) -> tuple[int, ...]:
    """Memoized top-down evaluation, one gate at a time on demand."""
    memo: dict[int, int] = {}

    def val(gid: int) -> int:
        if gid in memo:
            return memo[gid]
        g = circuit.gates[gid]
        if g.kind is GateKind.INPUT:
            v = bits[gid]
        elif g.kind is GateKind.CONST0:
            v = 0
        elif g.kind is GateKind.CONST1:
            v = 1
        else:
            ins = [val(i) for i in g.inputs]
            if g.kind is GateKind.AND:
                v = 1 if 0 not in ins else 0
            elif g.kind is GateKind.OR:
                v = 1 if 1 in ins else 0
            elif g.kind is GateKind.NOT:
                v = 1 - ins[0]
            else:  # majority, strict
                v = 1 if sum(ins) > len(ins) / 2 else 0
        memo[gid] = v
        return v

    return tuple(val(g.id) for g in circuit.gates)


def brute_longest_path(circuit: Circuit, gid: int) -> int:
    """Longest terminal-to-gate path by unmemoized enumeration of all paths."""
    g = circuit.gates[gid]
    if g.kind in TERMINALS:
        return 0
    return 1 + max(brute_longest_path(circuit, i) for i in g.inputs)


def memo_depths(circuit: Circuit) -> list[int]:
    """Per-gate longest-path depths via recursion (for larger circuits)."""
    memo: dict[int, int] = {}

    def depth(gid: int) -> int:
        if gid not in memo:
            g = circuit.gates[gid]
            memo[gid] = (
                0 if g.kind in TERMINALS else 1 + max(depth(i) for i in g.inputs)
            )
        return memo[gid]

    return [depth(g.id) for g in circuit.gates]


def naive_evolve(cells, rule: int, steps: int) -> tuple[int, ...]:
    """Row-by-row automaton reference with explicit neighbor indexing."""
    row = list(cells)
    for _ in range(steps):
        nxt = []
        for i in range(len(row)):
            left = row[i - 1] if i > 0 else 0
            center = row[i]
            right = row[i + 1] if i < len(row) - 1 else 0
            nxt.append((rule >> (left * 4 + center * 2 + right)) & 1)
        row = nxt
    return tuple(row)


def compose_tables(rule: int, k: int) -> tuple[int, ...]:
    """The k-row window table, built entry by entry from the (k-1)-row one.

    Entry w of the j-row table is the center of the (2j+1)-cell window w
    (MSB first) after j rows: the rule applied to the (j-1)-row entries of
    its left, middle and right (2j-1)-cell sub-windows.
    """
    one_row = tuple((rule >> b) & 1 for b in range(8))
    table = one_row
    for j in range(2, k + 1):
        prev, mask = table, (1 << (2 * j - 1)) - 1
        table = tuple(
            one_row[(prev[w >> 2] << 2) | (prev[(w >> 1) & mask] << 1) | prev[w & mask]]
            for w in range(1 << (2 * j + 1))
        )
    return table


def word_product(word) -> tuple[int, ...]:
    """The product word[0] o word[1] o ... of permutations, read left to right.

    ``image[i]`` is where the letters read so far send point i when the
    last of them is applied first; reading one more letter sends i through
    that letter, then through the old images.  No tuple composition.
    """
    image = {i: i for i in range(5)}
    for letter in word:
        image = {i: image[letter[i]] for i in image}
    return tuple(image[i] for i in range(5))


def perm_parity_by_inversions(p) -> int:
    """Parity as inversion count mod 2 (library uses cycle decomposition)."""
    return sum(1 for i in range(5) for j in range(i + 1, 5) if p[i] > p[j]) % 2


def splitmix64_finalizer(x: int) -> int:
    """splitmix64's output function (Steele, Lea & Flood, OOPSLA 2014), in arithmetic mod 2^64."""
    x = (x + 0x9E3779B97F4A7C15) % 2**64
    x = (x ^ x // 2**30) * 0xBF58476D1CE4E5B9 % 2**64
    x = (x ^ x // 2**27) * 0x94D049BB133111EB % 2**64
    return x ^ x // 2**31


def simulated_bundle_errors(truth, p: float, seeds, n: int, vocab: int) -> int:
    """Words where a full vote of the simulated decider over ``seeds`` misses ``truth``.

    Written out from the decider's published rule, not from the package: a
    word hashes as the chain of finalizer steps from 0x8BADF00D, xoring in
    token + 1 each time; a seed hashes as the finalizer of the seed mod
    2^64; the decision is the truth, flipped when the finalizer of the two
    hashes xored falls below floor(p * 2^64).  Every seed votes: no early exit.
    """
    threshold = int(p * 2**64)
    seed_hashes = [splitmix64_finalizer(s % 2**64) for s in seeds]
    bad = 0
    for word in itertools.product(range(vocab), repeat=n):
        word_hash = 0x8BADF00D
        for tok in word:
            word_hash = splitmix64_finalizer(word_hash ^ (tok + 1))
        right = truth(word)
        votes = [right ^ (splitmix64_finalizer(word_hash ^ h) < threshold) for h in seed_hashes]
        majority = 1 if votes.count(1) > votes.count(0) else 0
        if majority != right:
            bad += 1
    return bad


def random_monotone_circuit(seed: int, n_inputs: int, n_gates: int, fanin_max: int = 3) -> Circuit:
    """Random NOT-free circuit (AND/OR/MAJORITY) for monotonicity properties."""
    rng = random.Random(seed)
    gates = [Gate(i, GateKind.INPUT) for i in range(n_inputs)]
    for gid in range(n_inputs, n_inputs + n_gates):
        kind = rng.choice((GateKind.AND, GateKind.OR, GateKind.MAJORITY))
        fanin = rng.randint(1, min(fanin_max, gid))
        inputs = tuple(sorted(rng.sample(range(gid), fanin)))
        gates.append(Gate(gid, kind, inputs))
    return Circuit(tuple(gates), n_inputs, n_inputs + n_gates - 1)


def legal_actions(s: EnvState):
    """The environment's full action menu at a state, from its public rules."""
    if s.phase is Phase.FORCED_CHOICE:
        from depthbench.circuits import logic_ids

        for gid in logic_ids(s.config.circuit):
            yield PickCircuitGate(gid)
        for j in range(1, s.chain_len + 1):
            yield PickChainGate(j)
    elif s.phase in (Phase.SELECTING_CIRCUIT, Phase.SELECTING_CHAIN):
        if s.phase is Phase.SELECTING_CIRCUIT:
            from depthbench.circuits import logic_ids

            candidates = logic_ids(s.config.circuit)
        else:
            candidates = range(1, s.chain_len + 1)
        for gid in candidates:
            if gid not in s.chosen:
                yield SelectGate(gid)
        yield PASS


def brute_force_value(s: EnvState, memo: dict | None = None) -> int:
    """Best terminal reward over *all* action sequences, by exhaustive search."""
    if s.phase is Phase.DONE:
        return 0
    if memo is None:
        memo = {}
    key = (s.phase, s.chosen, s.t)
    if key in memo:
        return memo[key]
    best = 0
    for action in legal_actions(s):
        nxt, reward, done = env_step(s, action)
        value = reward + (0 if done else brute_force_value(nxt, memo))
        if value > best:
            best = value
    memo[key] = best
    return best
