"""Building blocks for tests: tuple inventories built from per-field arrays,
for tests that write tuples by hand (each helper lays the arrays out as the
one block the inventory classes take), Gilboa batches on blocks of their
own, a dealer's reply to Alice, and one PSI run in one call."""

import numpy as np

from olepsi.modvec import dtype_for
from olepsi.offline import expand_sections, gilboa_batch
from olepsi.params import sections
from olepsi.runner import make_sessions, run_psi_pair
from olepsi.tuples import AliceInventory, BobInventory, inventory_token


def alice_inventory(modulus, s_A, r_A):
    """Alice's half from s_A (count,) and r_A (count, L), copied into one
    (count, 1 + L) block."""
    s_A, r_A = np.asarray(s_A), np.asarray(r_A)
    block = np.empty((r_A.shape[0], 1 + r_A.shape[1]), dtype=np.result_type(s_A, r_A))
    block[:, 0] = s_A
    block[:, 1:] = r_A
    return AliceInventory(modulus, block)


def bob_inventory(modulus, r_B_inv, s_B):
    """Bob's half from two (count, L) arrays, stacked into one (count, L, 2)
    block."""
    return BobInventory(modulus, np.stack([r_B_inv, s_B], axis=-1))


def gilboa_inventories(ot, modulus, count, slot_len, seed):
    """(AliceInventory, BobInventory) of gilboa_batch run on fresh blocks of
    `count` batches of slot_len slots."""
    dt = dtype_for(modulus.q)
    alice = np.empty((count, 1 + slot_len), dt)
    bob = np.empty((count, slot_len, 2), dt)
    gilboa_batch(ot, modulus, seed, alice, bob)
    return AliceInventory(modulus, alice), BobInventory(modulus, bob)


def dealer_reply(R_A, R_B, params):
    """(Alice's inventories, the token of Bob's half) of a dealer run on the
    seeds R_A and R_B: what the dealer serves Alice."""
    alice, bob = expand_sections(params.modulus, sections(params), seed_a=R_A, seed_b=R_B)
    return alice, inventory_token(bob)


def psi_once(alice_set, bob_set, params, backend="seed", master_seed=None):
    """The intersection from one offline phase and one in-process run."""
    alice, bob = make_sessions(params, backend=backend, master_seed=master_seed)
    result, _, _ = run_psi_pair(alice, alice_set, bob, bob_set)
    return result
