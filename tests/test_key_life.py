"""A stateful test of a public key's life.

A PublicKey counts the blocks it solves, and the call that brings the
count to K = n // 4 + 2 or past it certifies the key or refuses it, for
good: below K, refused and certified are its three states.  A certified
key builds its plane tables with the certificate, and verification's
tables at its first holds, from one walk of its fields: the gate's lane
tables, and the whole lane tables below keys._PRODUCT_FROM.  This
machine drives five keys of one size n in {3, 5, 7, 9} through random
sequences of solve, holds, ld2.cipher's encrypt_message and verify, and
encode_key then decode_key, which starts a fresh key below K, with
batches that straddle K.  The oracle is the
fields: every solution is solve_linear(*linear_system(x)), every holds
_vanish_on_fields, and whether the certificate passes is read off the
systems M(x) at x = 0 and at each e_j, never off the tables.  The keys are
an honest keygen key, test_cipher's crafted key (certified, with a zero
z(x)), an all-ones key (refused), a random-field key (almost always refused)
and the honest key with one xy bit flipped (M(0) invertible, refused).
It runs twice: as the code stands, where every n it draws verifies
through the whole lane tables, and with _PRODUCT_FROM at 3 and a gate of
one equation, where every one verifies by the field product.

After every step each key is in the state its block count gives; once it
leaves the state below K it keeps the same object; _certify ran once
since the key was born if the count reached K, else never; the plane
tables once if the key is certified; one walk of the fields for
verification's tables, from holds, if the key is certified and has held
since, else none, and the tables equal those of its fields and keep their
objects; and encode_key gives the text the key had at birth.
"""

import contextlib
import operator
import random
import sys
from unittest import mock

from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

import ld2.keys as keys_mod
from ld2.cipher import MalformedKeyError, encrypt_message, pad_message, verify
from ld2.gf2n import Field, packed_size
from ld2.keys import PublicKey, decode_key, encode_key, keygen
from ld2.linalg import SingularMatrixError, rank, solve_linear
from conftest import verification_tables
from test_cipher import _crafted_key

def _keys(n: int, seed: int) -> list[PublicKey]:
    """The honest, crafted, all-ones, random-field and tampered keys at n."""
    rng = random.Random(seed)
    widths = [width for _, width in keys_mod._equation_widths(n)]
    honest = keygen(n, seed)[1]
    tampered = [list(f) for f in honest.fields]
    tampered[rng.randrange(n)][1] ^= 1 << rng.randrange(n * n)  # one xy bit
    return [
        honest,
        _crafted_key(n, seed),
        PublicKey._from_fields(n, (tuple((1 << w) - 1 for w in widths),) * n),
        PublicKey._from_fields(n, tuple(tuple(rng.getrandbits(w) for w in widths)
                                        for _ in range(n))),
        PublicKey._from_fields(n, tuple(map(tuple, tampered))),
    ]


def _eliminated(key: PublicKey, x: int):
    """The solution at x by elimination on the fields, or None if the
    system is singular."""
    try:
        return solve_linear(*key.linear_system(x))
    except SingularMatrixError:
        return None


def _certifiable(key: PublicKey) -> bool:
    """Whether M(x) = Mult(z(x)) M(0), z(x) = M(x) p0, for every x, with
    M(0) invertible and p0 = M(0)^-1 e0: read off the systems at x = 0 and
    x = e_j, as M(x) is affine in x."""
    n = key.n
    field = Field(n)
    m0 = key.linear_system(0)[0]
    if rank(m0) < n:
        return False
    p0 = solve_linear(m0, 1)
    columns = m0.transpose().rows
    for j in range(n):
        m = key.linear_system(1 << j)[0]
        z = m.mul_vec(p0)
        if list(m.transpose().rows) != [field.mul(z, column) for column in columns]:
            return False
    return True


class _Life:
    """The model of one key: its block count since birth, whether the
    certificate passes on its fields, its text, whether it has held since
    it was certified, and its certified object once it has one."""

    def __init__(self, key: PublicKey, certifiable: bool):
        self.key = key
        self.blocks = 0
        self.certifiable = certifiable
        self.text = encode_key(key)
        self.held = False
        self.inversion = None
        self.tables = None


class KeyLife(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        # the equation counts of the builds per key, by the id of its
        # fields tuple; every key of an example stays alive, so no id is
        # reused
        self.builds = {name: {} for name in ("_certify", "_plane_tables", "_lane_major")}
        self.retired = []
        self.patches = [
            mock.patch.object(keys_mod, name, self._counted(name, getattr(keys_mod, name)))
            for name in self.builds
        ]
        for patch in self.patches:
            patch.start()

    def teardown(self):
        for patch in self.patches:
            patch.stop()

    def _counted(self, name, original):
        def counted(n, fields, *args):
            key = fields
            if name == "_lane_major":
                # from n = _PRODUCT_FROM the walk takes a slice of the
                # fields: log it under the key whose holds asked for it
                build, caller = sys._getframe(1), sys._getframe(2)
                assert build.f_code is keys_mod._Certified.build_lanes.__code__
                assert caller.f_code is PublicKey.holds.__code__, "lane tables outside holds"
                holder = caller.f_locals["self"]
                assert holder._inversion is build.f_locals["self"], "another key's tables"
                key = holder.fields
            self.builds[name].setdefault(id(key), []).append(len(fields))
            return original(n, fields, *args)

        return counted

    @initialize(n=st.sampled_from([3, 5, 7, 9]), seed=st.integers(0, (1 << 32) - 1))
    def keys(self, n, seed):
        self.n = n
        self.k = n // 4 + 2  # K, stated apart from _certify_after
        self.lives = [_Life(key, _certifiable(key)) for key in _keys(n, seed)]
        certifiable = [life.certifiable for life in self.lives]
        assert certifiable[:3] + certifiable[4:] == [True, True, False, False]

    def _index(self, data):
        return data.draw(st.integers(0, len(self.lives) - 1), label="key")

    @rule(data=st.data())
    def solve(self, data):
        life = self.lives[self._index(data)]
        blocks = data.draw(st.lists(st.integers(0, (1 << self.n) - 1), max_size=2 * self.k))
        expected = [_eliminated(life.key, x) for x in blocks]
        life.blocks += len(blocks)
        if None in expected:
            with contextlib.suppress(SingularMatrixError):
                life.key.solve(blocks)
                raise AssertionError("a singular system solved")
        else:
            assert life.key.solve(blocks) == expected

    @rule(data=st.data())
    def encrypt(self, data):
        life = self.lives[self._index(data)]
        message = data.draw(st.binary(max_size=self.n * self.k // 4))
        blocks = pad_message(message, self.n)
        expected = [_eliminated(life.key, x) for x in blocks]
        life.blocks += len(blocks)
        if None in expected:
            with contextlib.suppress(MalformedKeyError):
                encrypt_message(life.key, message)
                raise AssertionError("a singular system encrypted")
        else:
            size = packed_size(self.n)
            assert encrypt_message(life.key, message) == b"".join(
                y.to_bytes(size, "little") for y in expected)

    @rule(data=st.data(), through_verify=st.booleans())
    def holds(self, data, through_verify):
        # a valid pair where the system at x is regular, else any pair,
        # then that pair with one bit flipped
        life = self.lives[self._index(data)]
        n = self.n
        x = data.draw(st.integers(0, (1 << n) - 1))
        y = _eliminated(life.key, x)
        if y is None:
            y = data.draw(st.integers(0, (1 << n) - 1))
        flip = data.draw(st.integers(0, 2 * n - 1))
        for pair in ((x, y), (x ^ 1 << flip, y) if flip < n else (x, y ^ 1 << flip - n)):
            expected = keys_mod._vanish_on_fields(n, life.key.fields, *pair)
            if through_verify:
                assert verify(life.key, pair[1], pair[0]) == expected
            else:
                assert life.key.holds(*pair) == expected
        life.held = life.held or bool(life.key._inversion)

    @rule(data=st.data())
    def holds_out_of_range(self, data):
        life = self.lives[self._index(data)]
        top = 1 << self.n
        x, y = data.draw(st.sampled_from([(top, 0), (0, top), (-1, 0), (0, -1)]))
        with contextlib.suppress(ValueError):
            life.key.holds(x, y)
            raise AssertionError("an out-of-range pair held or failed")

    @rule(data=st.data())
    def recode(self, data):
        # decode_key of the key's text: the same key, a fresh life
        index = self._index(data)
        life = self.lives[index]
        text = encode_key(life.key)
        assert text == life.text
        decoded = decode_key(text)
        assert decoded == life.key and decoded is not life.key
        self.retired.append(life)
        self.lives[index] = _Life(decoded, life.certifiable)

    @invariant()
    def states(self):
        for life in getattr(self, "lives", ()):
            key = life.key
            state = key._inversion
            if life.blocks < self.k:
                assert state is None
            elif life.certifiable:
                assert isinstance(state, keys_mod._Certified)
            else:
                assert state is False
            # the state only moves forward, and keeps its object
            if life.inversion is not None:
                assert state is life.inversion
            life.inversion = state
            certified = isinstance(state, keys_mod._Certified)
            held = certified and life.held
            n = self.n
            builds = {name: log.get(id(key.fields), []) for name, log in self.builds.items()}
            assert builds == {
                "_certify": [n] * (life.blocks >= self.k),
                "_plane_tables": [n] * certified,
                "_lane_major": [n if n < keys_mod._PRODUCT_FROM
                                else min(keys_mod._GATE, n)] * held,
            }
            if certified:
                tables = state.gate, state.lanes
                assert tables == (verification_tables(n, key.fields) if held else (None, None))
                if life.tables is not None and life.tables[0] is not None:
                    assert all(map(operator.is_, tables, life.tables))
                life.tables = tables
            assert encode_key(key) == life.text


class KeyLifeByProduct(KeyLife):
    """The machine with _PRODUCT_FROM at 3, so that every certified key it
    draws checks a pair past the gate by the field product, and a gate of
    one equation, which about half the flipped pairs pass: a gate of six
    would cover every equation at n = 3 and 5 and most of them at 7 and 9."""

    def __init__(self):
        super().__init__()
        for name, value in (("_PRODUCT_FROM", 3), ("_GATE", 1)):
            patch = mock.patch.object(keys_mod, name, value)
            patch.start()
            self.patches.append(patch)


TestKeyLife = KeyLife.TestCase
TestKeyLifeByProduct = KeyLifeByProduct.TestCase
TestKeyLife.settings = TestKeyLifeByProduct.settings = settings(
    max_examples=40, stateful_step_count=30, derandomize=True, database=None, deadline=None)
