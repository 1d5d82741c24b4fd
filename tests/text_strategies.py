"""Hypothesis strategies shared by the parser round-trip tests."""

from hypothesis import strategies as st


def edited_text(lines, plausible):
    """Texts made from lines by up to three deletions, insertions of a
    plausible or random line, and replacements, with any line ending."""
    noise = st.one_of(
        st.sampled_from(plausible),
        st.text(alphabet="0123456789abfx+-_#=nqrv \t", max_size=12),
        st.text(max_size=6),
    )
    edits = st.lists(st.tuples(st.sampled_from("dir"), st.integers(0, 1 << 16), noise), max_size=3)

    def apply(drawn):
        edits, end = drawn
        out = list(lines)
        for kind, where, line in edits:
            at = where % (len(out) + 1)
            if kind == "i":
                out.insert(at, line)
            elif at < len(out):
                if kind == "d":
                    del out[at]
                else:
                    out[at] = line
        return "\n".join(out) + end

    return st.tuples(edits, st.sampled_from(["\n", "", "\r\n"])).map(apply)
