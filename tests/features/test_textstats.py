"""Tests for character-class statistics."""

from hypothesis import given
from hypothesis import strategies as st

from repro.features.textstats import (
    count_digits,
    count_emoji,
    is_emoji,
    strip_for_shingling,
)

#: Characters on both sides of the U+2600 emoji floor, the emoji
#: variation selector, emoji, CJK, ASCII, and digits outside ASCII
#: (superscripts, Arabic-Indic, fullwidth, circled).
mixed_text = st.text(
    alphabet=st.one_of(
        st.characters(min_codepoint=0x25F0, max_codepoint=0x2610),
        st.sampled_from(["\ufe0f", "\u2600", "\u25ff"]),
        st.characters(min_codepoint=0x1F300, max_codepoint=0x1FAFF),
        st.characters(min_codepoint=0x4E00, max_codepoint=0x9FFF),
        st.characters(max_codepoint=0x7F),
        st.sampled_from(["\u00b2", "\u0663", "\uff17", "\u2460"]),
    )
)


class TestCounts:
    def test_count_digits(self):
        assert count_digits("a1b22c333") == 6
        assert count_digits("no digits") == 0

    def test_count_emoji(self):
        assert count_emoji("hello 🔥🔥 world 🎉") == 3
        assert count_emoji("plain text") == 0

    def test_ascii_symbols_not_emoji(self):
        assert count_emoji("a+b=c! @user #tag") == 0

    @given(mixed_text)
    def test_count_emoji_counts_is_emoji(self, text):
        assert count_emoji(text) == sum(map(is_emoji, text))

    @given(mixed_text)
    def test_count_digits_counts_isdigit(self, text):
        assert count_digits(text) == sum(map(str.isdigit, text))


class TestShinglingNormalization:
    def test_strips_urls(self):
        assert "http" not in strip_for_shingling("see http://x.example/abc now")

    def test_strips_emoji_and_punctuation(self):
        out = strip_for_shingling("great, DEALS!! 🔥 here")
        assert out == "great deals here"

    def test_lowercases(self):
        assert strip_for_shingling("Hello WORLD") == "hello world"

    def test_empty_and_url_only(self):
        assert strip_for_shingling("") == ""
        assert strip_for_shingling("http://a.example/b") == ""

    @given(
        st.lists(
            st.one_of(
                mixed_text,
                st.sampled_from(["http://x.example/1", "12-34", "a_b", "--"]),
            ),
            max_size=6,
        ).map(" ".join)
    )
    def test_strip_keeps_alnum_non_emoji_characters(self, text):
        tokens = (
            "".join(ch for ch in token if ch.isalnum() and not is_emoji(ch))
            for token in text.lower().split()
            if not token.startswith("http")
        )
        assert strip_for_shingling(text) == " ".join(
            token for token in tokens if token and not token.isdigit()
        )
