"""Tests for MinHash near-duplicate detection."""

import os
import pickle
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.features.textstats import strip_for_shingling
from repro.labeling import minhash
from repro.labeling.minhash import (
    MinHasher,
    group_by_signature,
    stable_hash64,
)


def _reference_signature(hasher: MinHasher, text: str) -> tuple[int, ...]:
    """The per-text signature over string tri-grams."""
    normalized = strip_for_shingling(text)
    if len(normalized) < 3:
        hashed = {stable_hash64(normalized)}
    else:
        hashed = {
            stable_hash64(normalized[i : i + 3])
            for i in range(len(normalized) - 2)
        }
    shingles = np.fromiter(sorted(hashed), dtype=np.int64)
    values = (
        hasher._a[:, None] * shingles[None, :] + hasher._b[:, None]
    ) % minhash._MERSENNE_PRIME
    return tuple(values.min(axis=1).tolist())


_TEXTS = [
    "",
    "   ",
    "a",
    "ab",
    "abc",
    "🔥🔥🔥",
    "🔥 😀 ✨",
    "http://x.example/only-a-link",
    "12345 67890",
    "win big cash now",
    "Win BIG cash! 🔥 http://a.example/1",
    "join our amazing community for great daily deals",
    "naïve café über straße",
    "win big cash now",
    "",
] + [f"campaign blast number {i % 7} act fast friends" for i in range(40)]


class TestMinHasher:
    def test_identical_texts_identical_signatures(self):
        hasher = MinHasher(seed=1)
        assert hasher.signatures(["win big cash now"]) == hasher.signatures(
            ["win big cash now"]
        )

    def test_normalization_before_hashing(self):
        hasher = MinHasher(seed=1)
        a, b = hasher.signatures(["Win BIG cash! 🔥", "win big cash"])
        assert a == b

    def test_urls_ignored(self):
        hasher = MinHasher(seed=1)
        a, b = hasher.signatures(
            ["deal now http://a.example/xyz", "deal now http://b.example/qrs"]
        )
        assert a == b

    def test_different_texts_differ(self):
        hasher = MinHasher(seed=1)
        a, b = hasher.signatures(
            ["the quick brown fox", "completely unrelated words here"]
        )
        assert a != b

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            MinHasher(n_hashes=0)


class TestSignaturesMatchReference:
    """The batch kernel equals the per-text formula, text by text."""

    @pytest.mark.parametrize(
        "n_hashes, seed",
        # Ids read n_hashes-3-seed: 3 is the tri-gram size.
        [pytest.param(16, 0, id="16-3-0"), pytest.param(32, 5, id="32-3-5")],
    )
    def test_signatures(self, n_hashes, seed):
        hasher = MinHasher(n_hashes, seed=seed)
        expected = [_reference_signature(hasher, t) for t in _TEXTS]
        assert hasher.signatures(_TEXTS) == expected
        # Served from the now-filled table, and one text at a time.
        assert hasher.signatures(_TEXTS) == expected
        assert [hasher.signatures([t])[0] for t in _TEXTS] == expected

    def test_more_texts_than_one_chunk(self):
        texts = [f"deal {i} of {i % 13} for word{i % 97}" for i in range(700)]
        hasher = MinHasher(seed=4)
        assert hasher.signatures(texts) == [
            _reference_signature(hasher, t) for t in texts
        ]

    def test_across_table_growth_and_reset(self, monkeypatch):
        monkeypatch.setattr(minhash, "_TABLE_CAP", 40)
        hasher = MinHasher(seed=9)
        got, sizes = [], []
        for start in range(0, len(_TEXTS), 6):
            got += hasher.signatures(_TEXTS[start : start + 6])
            sizes.append(len(hasher._codes))
        assert got == [_reference_signature(hasher, t) for t in _TEXTS]
        # The table was cleared at least once and stays bounded by the
        # cap plus one chunk's shingles.
        assert any(after < before for before, after in zip(sizes, sizes[1:]))
        assert max(sizes) <= 40 + 6 * max(map(len, _TEXTS))

    def test_table_stays_out_of_pickles(self):
        hasher = MinHasher(seed=6)
        expected = hasher.signatures(_TEXTS)
        clone = pickle.loads(pickle.dumps(hasher))
        assert len(hasher._codes) and not len(clone._codes)
        assert clone.signatures(_TEXTS) == expected

    def test_empty_batch(self):
        assert MinHasher().signatures([]) == []


#: Characters around ASCII punctuation, the U+2600 emoji floor, the
#: emoji variation selector and joiner, astral emoji, CJK (BMP and
#: astral) and combining marks.
_CHARACTERS = st.one_of(
    st.characters(max_codepoint=0x7F),
    st.characters(min_codepoint=0x25F0, max_codepoint=0x2610),
    st.sampled_from(["\ufe0f", "\u200d"]),
    st.characters(min_codepoint=0x1F300, max_codepoint=0x1FAFF),
    st.characters(min_codepoint=0x4E00, max_codepoint=0x4E20),
    st.characters(min_codepoint=0x20000, max_codepoint=0x20010),
    st.characters(min_codepoint=0x0300, max_codepoint=0x036F),
)

#: Free tokens, digit-only tokens, and tokens that strip to 0-2
#: characters (links, mentions, one or two letters, a lone emoji).
_TOKENS = st.one_of(
    st.text(_CHARACTERS, max_size=8),
    st.from_regex(r"[0-9]{1,5}", fullmatch=True),
    st.sampled_from(["http://x.example/a", "@user", "a", "Ab", "🔥", "--"]),
)

_TEXTS_DRAWN = st.lists(_TOKENS, max_size=6).map(" ".join)


class TestSignaturesProperty:
    """The kernel equals the string tri-gram formula on drawn texts."""

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(_TEXTS_DRAWN, min_size=1, max_size=12),
        st.sampled_from([4, minhash._TABLE_CAP]),
    )
    def test_equals_reference_text_by_text(self, texts, cap):
        # At a cap of 4 nearly every chunk after the first starts the
        # table over.
        with mock.patch.object(minhash, "_TABLE_CAP", cap):
            hasher = MinHasher(seed=8)
            got = [hasher.signatures(texts), hasher.signatures(texts[::-1])]
        assert got == [
            [_reference_signature(hasher, t) for t in texts],
            [_reference_signature(hasher, t) for t in texts[::-1]],
        ]


class TestGoldenSignature:
    """Pins the hash family itself, independent of any reference code.

    ``h_i(s) = (a_i * s + b_i) mod (2**61 - 1)`` is evaluated in int64,
    so ``a_i * s + b_i`` wraps modulo ``2**64`` first.  A rewrite that
    changes the arithmetic (exact or otherwise) moves these values, and
    with them the labels.
    """

    def test_single_shingle_text(self):
        hasher = MinHasher()
        assert hasher.signatures(["abc"])[0] == (
            1897459278513570036, 998221800559557733, 1603711347189006915,
            1205433335077789252, 1522158782461163927, 247728683352800145,
            1075431599734995433, 500726890149951581, 234190593398316197,
            1032369216515859944, 66503805108178251, 1626063289148461129,
            1960438182878346971, 442654713843091404, 1180551092632808182,
            699020874596917086,
        )

    def test_multi_shingle_text(self):
        hasher = MinHasher()
        (signature,) = hasher.signatures(
            ["Win big CASH now 🔥 http://x.example/1"]
        )
        assert signature == (
            6454421931418146, 257197366534213701, 251985356267161140,
            153030620239381758, 55017965932303999, 202909413429524310,
            23655448970791312, 116329137653320343, 95056072856784060,
            25922739944544213, 139792064466106311, 478714280725131161,
            116537742215135046, 61104468969603587, 148349996996353149,
            202192150117903293,
        )

    def test_family_is_not_exact_mod_p(self):
        hasher = MinHasher()
        s = stable_hash64("abc")
        exact = [
            (int(a) * s + int(b)) % minhash._MERSENNE_PRIME
            for a, b in zip(hasher._a, hasher._b)
        ]
        assert all(
            e != v for e, v in zip(exact, hasher.signatures(["abc"])[0])
        )


class TestGrouping:
    def test_groups_identical_descriptions(self):
        texts = [
            "best deals every day 🔥",
            "best deals every day",
            "my personal garden blog",
            "BEST deals every DAY!",
            "completely different bio",
        ]
        groups = group_by_signature(texts, MinHasher(seed=3))
        assert [0, 1, 3] in [sorted(g) for g in groups]

    def test_blank_bios_never_grouped(self):
        texts = ["", "   ", "http://x.example/a", "real words here", ""]
        groups = group_by_signature(texts, MinHasher(seed=3))
        flattened = {i for g in groups for i in g}
        assert 0 not in flattened and 4 not in flattened

    def test_singletons_dropped(self):
        texts = ["alpha words", "beta words here", "gamma phrase now"]
        assert group_by_signature(texts, MinHasher(seed=4)) == []


_HASHSEED_SNIPPET = """\
from repro.labeling.minhash import MinHasher, stable_hash64

hasher = MinHasher(n_hashes=32, seed=5)
print(stable_hash64("win big cash now"))
print(hasher.signatures(["join our amazing community for daily deals"])[0])
"""


class TestStableHash:
    def test_known_value_and_range(self):
        value = stable_hash64("abc")
        assert value == stable_hash64("abc")
        assert 0 <= value < 2**63
        assert stable_hash64("abc") != stable_hash64("abd")

    @pytest.mark.parametrize("hashseed", ["0", "1", "12345"])
    def test_signatures_survive_pythonhashseed(self, hashseed):
        """Signatures are identical across interpreter hash seeds.

        The regression this guards: shingles built on the builtin
        ``hash()`` are salted per process (PYTHONHASHSEED), so two
        runs of the same pipeline grouped different tweets.
        """
        env = dict(os.environ, PYTHONHASHSEED=hashseed)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, ["src", env.get("PYTHONPATH", "")])
        )
        proc = subprocess.run(
            [sys.executable, "-c", _HASHSEED_SNIPPET],
            capture_output=True,
            text=True,
            env=env,
            cwd=os.path.dirname(os.path.dirname(os.path.dirname(__file__))),
        )
        assert proc.returncode == 0, proc.stderr
        reference = subprocess.run(
            [sys.executable, "-c", _HASHSEED_SNIPPET],
            capture_output=True,
            text=True,
            env=dict(env, PYTHONHASHSEED="99"),
            cwd=os.path.dirname(os.path.dirname(os.path.dirname(__file__))),
        )
        assert reference.returncode == 0, reference.stderr
        assert proc.stdout == reference.stdout
