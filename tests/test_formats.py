"""Rules every text format shares: the key/value rules the README states,
and loader fuzzing (a mutated document loads or raises MdimError)."""
from __future__ import annotations

import io
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mdimlab import (
    MdimError,
    MarkovBranch,
    MarkovView,
    SerializationError,
    SurgeryPlan,
    build_fbeta,
    build_model_2d,
    dump_model,
    dump_model_2d,
    dump_plan,
    dump_pwa,
    dump_surgery_plan,
    dump_views,
    identity_map,
    load_model,
    load_model_2d,
    load_plan,
    load_pwa,
    load_surgery_plan,
    load_views,
    plan_sequences,
    tent_map,
)
from mdimlab.cli import main

F = Fraction

SMALL_PLAN = plan_sequences(F(1, 2), 1)
SURGERY_PLAN = SurgeryPlan(
    identity_map(), F(1, 2), (F(3, 20), F(17, 20)), (F(1, 4), F(3, 4)), (F(1, 5), F(4, 5)),
    SMALL_PLAN, budget=F(2),
)


@pytest.fixture(scope="module")
def base_dir(tmp_path_factory):
    """Directory holding the files a surgery plan and a sweep config refer to."""
    base = tmp_path_factory.mktemp("formats")
    (base / "host.txt").write_text(dump_pwa(SURGERY_PLAN.host))
    (base / "fplan.txt").write_text(dump_plan(SMALL_PLAN))
    (base / "tent.txt").write_text(dump_pwa(tent_map()))
    return base


# === the README's key/value rules =============================================

def key_value_error(fmt: str, text: str, base) -> str | None:
    """None when the document loads, else its SerializationError message (for
    the sweep config, the exit-2 message of a sweep run on it)."""
    if fmt == "sweep-config":
        (base / "sweep.cfg").write_text(text)
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            code = main(["sweep", "--config", str(base / "sweep.cfg"), "-o", str(base / "out")])
        assert code in (0, 2), err.getvalue()
        return None if code == 0 else err.getvalue()
    load = {"fbeta-plan": load_plan, "horseshoe-2d": load_model_2d,
            "surgery-plan": lambda t: load_surgery_plan(t, base)}[fmt]
    try:
        load(text)
    except SerializationError as exc:
        return str(exc)
    return None


# format -> (document, its key/value lines' separator, the noun the messages
# use for a key, the required keys)
KEY_VALUE_FORMATS = {
    "fbeta-plan": (dump_plan(SMALL_PLAN), " = ", "plan key", ("beta", "K", "seed_a1")),
    "horseshoe-2d": (dump_model_2d(build_model_2d(4, F(1, 2), F(1, 16), 2)), " ", "scalar",
                     ("N", "p", "delta", "epsilon", "width")),
    "surgery-plan": (dump_surgery_plan(SURGERY_PLAN, "host.txt", "fplan.txt"), " ",
                     "field", ("host", "plan", "P", "J", "J-hat", "J-tilde")),
    "sweep-config": ("source = tent.txt\nmethod = cylinder\nscales = 1/10\nn-window = 1:2\n",
                     " = ", "config key", ("source", "method", "scales")),
}


@pytest.mark.parametrize("fmt", KEY_VALUE_FORMATS)
def test_key_value_rules_are_the_same_in_every_format(fmt, base_dir):
    text, sep, what, required = KEY_VALUE_FORMATS[fmt]

    def error(t: str) -> str | None:
        return key_value_error(fmt, t, base_dir)

    lines = text.splitlines()
    assert error(text) is None
    # blank lines and whitespace around a line are ignored
    assert error("\n\n".join(f" \t{ln}  " for ln in lines) + "\n\n") is None
    # unknown, repeated and missing keys, and a line without a separator
    assert f"unknown {what} 'foo'" in error(f"{text}foo{sep}3\n")
    for key in required:
        line = next(ln for ln in lines if ln.startswith(key + sep))
        assert f"repeated {what} {key!r}" in error(text + line + "\n")
        assert f"missing {what} {key!r}" in error(text.replace(line + "\n", ""))
    assert "bad line 'foo'" in error(text + "foo\n")


# === loader fuzzing ===========================================================

def small_views_text() -> str:
    view = MarkovView(F(1, 2), F(1), (MarkovBranch(F(1, 2), F(5, 8), True),
                                     MarkovBranch(F(3, 4), F(1), False)), F(1, 16), None,
                      "level 0")
    return dump_views([view])


# format -> (document, loader taking the text and the reference directory)
DUMPED_FORMATS = {
    "pwa-map": (dump_pwa(tent_map()), lambda t, base: load_pwa(t)),
    "fbeta-plan": (dump_plan(SMALL_PLAN), lambda t, base: load_plan(t)),
    "fbeta-model": (dump_model(build_fbeta(plan_sequences(F(1, 3), 0))),
                    lambda t, base: load_model(t)),
    "markov-views": (small_views_text(), lambda t, base: load_views(t)),
    "horseshoe-2d": (KEY_VALUE_FORMATS["horseshoe-2d"][0], lambda t, base: load_model_2d(t)),
    "surgery-plan": (KEY_VALUE_FORMATS["surgery-plan"][0], load_surgery_plan),
}
JUNK_TOKENS = ("x", "0", "-1", "1/0", "2/3", "=", ":", "0/1:1/1", "label", "branch", "[map]")
MUTATIONS = ("delete-token", "replace-token", "insert-line", "truncate-line")


def mutate(text: str, kind: str, line: int, at: int, pick: int) -> str:
    """One line mutation of a document."""
    lines = text.splitlines()
    i = line % len(lines)
    tokens = lines[i].split()
    pool = sorted(set(text.split())) + list(JUNK_TOKENS)
    if kind == "delete-token":
        del tokens[at % len(tokens)]
        lines[i] = " ".join(tokens)
    elif kind == "replace-token":
        tokens[at % len(tokens)] = pool[pick % len(pool)]
        lines[i] = " ".join(tokens)
    elif kind == "insert-line":
        junk = " ".join(pool[(pick + k) % len(pool)] for k in range(at % 4))
        lines.insert(i, lines[pick % len(lines)] if pick % 2 else junk)
    else:
        lines[i] = lines[i][:at % len(lines[i])]
    return "\n".join(lines) + "\n"


@settings(max_examples=400, deadline=None)
@given(
    fmt=st.sampled_from(sorted(DUMPED_FORMATS)),
    kind=st.sampled_from(MUTATIONS),
    line=st.integers(0, 10**6),
    at=st.integers(0, 10**6),
    pick=st.integers(0, 10**6),
)
@example(fmt="markov-views", kind="truncate-line", line=1, at=34, pick=0)   # "... label"
def test_a_mutated_document_loads_or_raises_a_typed_error(base_dir, fmt, kind, line, at, pick):
    text, load = DUMPED_FORMATS[fmt]
    try:
        load(mutate(text, kind, line, at, pick), base_dir)
    except MdimError:
        pass
