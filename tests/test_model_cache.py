"""The model cache: a warm load gives the model a parse gives, and nothing else.

``load_lm`` and ``load_lexicon`` keep what they parse from a model file in
an entry of ``$XDG_CACHE_HOME/mtqe``, keyed by the file's bytes.  A warm
load must give a model equal in every derived fact and bit-identical in
every query; an edited file, a damaged entry or a pipe must be parsed
again, with the messages of a cold load; and a cache that cannot be
written must change nothing a run prints or writes.
"""

import hashlib
import marshal
import os
import stat
import tempfile
import threading
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtqe import fileio
from mtqe.errors import CorruptModel, QEError
from mtqe.lexicon import TranslationLexicon, load_lexicon
from mtqe.ngram import load_lm, train_lm

from conftest import (
    CELL_WORDS,
    TRAINING_WORDS,
    cache_entries,
    model_cache,
    run_cli,
    write_toy_dataset,
)

SENTENCES = [["the", "dog", "runs"], ["a", "dog", "sees", "the", "cat"], ["the", "cat"]]
ENTRIES = {"cat": {"x": 0.5, "y": 0.25}, "dog": {"z": 1.0}}


@pytest.fixture
def cache(tmp_path, monkeypatch):
    """An empty model cache for this test; its entries are listed under it."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    return tmp_path / "xdg"


def _without_parsing(load, path):
    """``load(path)``, failing if the model file is parsed rather than read from the cache."""
    with mock.patch.object(fileio, "_decode_lines", side_effect=AssertionError("parsed")):
        return load(path)


def _error(load, path) -> str:
    with pytest.raises(CorruptModel) as info:
        load(path)
    return str(info.value)


def _assert_same_lm(cold, warm, queries):
    assert warm.order == cold.order
    assert list(warm.vocab.items()) == list(cold.vocab.items())
    assert [list(grams.items()) for grams in warm.counts] == [
        list(grams.items()) for grams in cold.counts
    ]
    assert warm.quartiles == cold.quartiles
    for tokens in queries:
        assert warm.sentence_log_prob(tokens).hex() == cold.sentence_log_prob(tokens).hex()
        for longest in range(1, cold.order + 1):
            assert warm.bands(tokens, longest) == cold.bands(tokens, longest)


# Equivalence: over the round-trip tests' corpora, a warm load is the cold one.

@settings(max_examples=40)
@given(st.lists(st.lists(TRAINING_WORDS, max_size=6), min_size=1, max_size=6),
       st.integers(1, 4))
def test_warm_lm_equals_cold_lm(sentences, order):
    with tempfile.TemporaryDirectory() as directory, model_cache(Path(directory) / "xdg"):
        path = Path(directory) / "m.lm"
        train_lm(sentences, order).save(path)
        cold = load_lm(path)
        assert len(cache_entries(Path(directory) / "xdg")) == 1
        warm = _without_parsing(load_lm, path)
    # Every sentence, and one with a token outside the vocabulary (no
    # training word holds a space).
    _assert_same_lm(cold, warm, [*sentences, [*sentences[0], "a b"], []])


@settings(max_examples=40)
@given(st.dictionaries(CELL_WORDS,
                       st.dictionaries(CELL_WORDS, st.floats(0.0, 1.0, exclude_min=True))))
def test_warm_lexicon_equals_cold_lexicon(entries):
    with tempfile.TemporaryDirectory() as directory, model_cache(Path(directory) / "xdg"):
        path = Path(directory) / "lexicon.tsv"
        TranslationLexicon(entries).save(path)
        cold = load_lexicon(path)
        warm = _without_parsing(load_lexicon, path)
    assert list(warm.sizes.items()) == list(cold.sizes.items())


def test_files_of_the_same_bytes_share_an_entry(cache, tmp_path):
    model = train_lm(SENTENCES, 3)
    model.save(tmp_path / "a.lm")
    model.save(tmp_path / "b.lm")
    load_lm(tmp_path / "a.lm")
    _without_parsing(load_lm, tmp_path / "b.lm")
    assert len(cache_entries(cache)) == 1
    assert stat.S_IMODE(os.stat(cache / "mtqe").st_mode) == 0o700


# Invalidation: the key is the file's bytes, not its name, size or mtime.

def _edit_in_place(path, old: bytes, new: bytes):
    """Replace ``old`` by ``new`` (same length) in ``path``, keeping its size and mtime."""
    assert len(old) == len(new)
    before = os.stat(path)
    data = path.read_bytes()
    assert old in data
    with open(path, "r+b") as handle:
        handle.write(data.replace(old, new))
    os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
    after = os.stat(path)
    assert (after.st_size, after.st_mtime_ns) == (before.st_size, before.st_mtime_ns)


def test_model_edited_in_place_is_parsed_again(cache, tmp_path):
    path = tmp_path / "m.lm"
    train_lm(SENTENCES, 3).save(path)
    assert "dog" in load_lm(path).vocab
    # "dot" takes "dog"'s place in code-point order, so the file stays valid.
    _edit_in_place(path, b"dog", b"dot")
    edited = load_lm(path)
    assert "dot" in edited.vocab and "dog" not in edited.vocab
    assert len(cache_entries(cache)) == 2


def test_corrupting_edit_gives_the_cold_message(cache, tmp_path):
    path = tmp_path / "m.lm"
    train_lm(SENTENCES, 3).save(path)
    load_lm(path)
    _edit_in_place(path, b"\nend\n", b"\nEnd\n")
    message = _error(load_lm, path)
    with model_cache(tmp_path / "empty"):
        assert _error(load_lm, path) == message
    assert message == "corrupt model file: the last line must be 'end', got 'End'"


# Damage: an entry that is not exactly what was stored is a miss, and the
# load rewrites it.

def _framed(data: bytes, payload: bytes) -> bytes:
    """``data``'s header, then ``payload`` with its own checksum."""
    header = data[: data.index(b"\n") + 1]
    return header + hashlib.sha256(payload).digest() + payload


def _payload(data: bytes):
    """The payload of the cache entry ``data``."""
    return marshal.loads(data[data.index(b"\n") + 1 + fileio._CHECKSUM_BYTES :])


def _flip(data: bytes, at: int) -> bytes:
    return data[:at] + bytes([data[at] ^ 1]) + data[at + 1 :]


DAMAGE = {
    "truncated": lambda data: data[: len(data) // 2],
    "empty": lambda data: b"",
    "flipped payload byte": lambda data: _flip(data, len(data) - 1),
    "flipped checksum byte": lambda data: _flip(data, data.index(b"\n") + 1),
    "wrong magic": lambda data: data.replace(b"mtqe-model-cache", b"mtqe-model-cachf", 1),
    "wrong payload version": lambda data: data.replace(
        f"\tv{fileio._PAYLOAD_VERSION}-".encode(), f"\tv{fileio._PAYLOAD_VERSION + 1}-".encode(), 1
    ),
    "wrong kind": lambda data: data.replace(b"\tlm\t", b"\tlx\t", 1),
    "bad marshal data": lambda data: _framed(data, b"\xff"),
    "cut-short marshal data": lambda data: _framed(data, marshal.dumps((1, 2))[:-1]),
    "lexicon payload": lambda data: _framed(data, marshal.dumps({"dog": 1})),
    "payload with too few gram lengths": lambda data: _framed(
        data, marshal.dumps((3, {}, [], {1: (1, 1), 2: (1, 1), 3: (1, 1)}))
    ),
    "payload without quartiles": lambda data: _framed(data, marshal.dumps(_payload(data)[:3])),
}


@pytest.mark.parametrize("damage", sorted(DAMAGE))
def test_damaged_entry_is_a_miss_and_rewritten(damage, cache, tmp_path):
    path = tmp_path / "m.lm"
    train_lm(SENTENCES, 3).save(path)
    cold = load_lm(path)
    (entry,) = cache_entries(cache)
    good = entry.read_bytes()
    bad = DAMAGE[damage](good)
    assert bad != good
    entry.write_bytes(bad)
    _assert_same_lm(cold, load_lm(path), SENTENCES)
    assert entry.read_bytes() == good


def test_lexicon_given_as_lm_stays_corrupt_once_cached(cache, tmp_path):
    path = tmp_path / "lexicon.tsv"
    TranslationLexicon(ENTRIES).save(path)
    message = _error(load_lm, path)
    load_lexicon(path)
    assert len(cache_entries(cache)) == 1
    assert _error(load_lm, path) == message == "corrupt model file: missing model signature"


@pytest.mark.parametrize("load", [load_lm, load_lexicon], ids=["lm", "lexicon"])
def test_model_that_fails_to_load_leaves_no_entry(load, cache, tmp_path):
    path = tmp_path / "model"
    if load is load_lm:
        train_lm(SENTENCES, 3).save(path)
        path.write_bytes(path.read_bytes().replace(b"\nend\n", b"\n"))
    else:
        TranslationLexicon(ENTRIES).save(path)
        path.write_bytes(path.read_bytes().replace(b"\t0.5\n", b"\t1.5\n"))
    with pytest.raises(QEError):
        load(path)
    assert cache_entries(cache) == []


# Size: past its cap the cache drops the least recently used entries.

def _lm_of(word, tmp_path):
    """A language model file whose bytes differ from those of any other ``word``."""
    path = tmp_path / f"{word}.lm"
    train_lm([[word, "dog", "runs"], ["the", word]], 2).save(path)
    return path


def _age(entry, seconds):
    """Set ``entry``'s mtime ``seconds`` into the past (file times move in clock ticks)."""
    when = os.stat(entry).st_mtime_ns - seconds * 10**9
    os.utime(entry, ns=(when, when))


def test_cache_stays_under_its_cap_dropping_the_least_recently_used(cache, tmp_path, monkeypatch):
    paths = [_lm_of(word, tmp_path) for word in ("ant", "bee", "cow")]
    load_lm(paths[0])
    (first,) = cache_entries(cache)
    load_lm(paths[1])
    (second,) = set(cache_entries(cache)) - {first}
    # Room for two entries of this size, not three.
    largest = max(first.stat().st_size, second.stat().st_size)
    monkeypatch.setattr(fileio, "_CACHE_BYTES", 2 * largest + largest // 2)
    _age(first, 20)
    _age(second, 10)
    _without_parsing(load_lm, paths[0])  # a hit marks the older entry used
    load_lm(paths[2])
    entries = cache_entries(cache)
    assert first in entries and second not in entries and len(entries) == 2
    assert sum(entry.stat().st_size for entry in entries) <= fileio._CACHE_BYTES


def test_entry_larger_than_the_cap_is_not_stored(cache, tmp_path, monkeypatch):
    load_lm(_lm_of("ant", tmp_path))
    (small,) = cache_entries(cache)
    monkeypatch.setattr(fileio, "_CACHE_BYTES", small.stat().st_size + 1)
    path = tmp_path / "m.lm"
    train_lm(SENTENCES, 3).save(path)
    assert load_lm(path).order == 3
    # Storing it would have evicted every other entry, to no use.
    assert cache_entries(cache) == [small]


def test_eviction_deletes_a_stale_temp_file(cache, tmp_path, monkeypatch):
    path = _lm_of("ant", tmp_path)
    load_lm(path)
    (entry,) = cache_entries(cache)
    stale = cache / "mtqe" / ".tmp-0123456789abcdef~"
    stale.write_bytes(bytes(entry.stat().st_size))
    _age(stale, 60)
    monkeypatch.setattr(fileio, "_CACHE_BYTES", 2 * entry.stat().st_size + 1)
    load_lm(_lm_of("bee", tmp_path))
    assert not stale.exists() and entry in cache_entries(cache)


# Trust: a cache directory someone else could write is neither read nor written.

def _share(directory, how):
    """Make ``directory`` writable by others, or give it to another user."""
    if how == "owned by another user":
        if os.geteuid() != 0:
            pytest.skip("only root can give a directory to another user")
        os.chown(directory, os.geteuid() + 1, -1)
    else:
        os.chmod(directory, {"world-writable": 0o777, "group-writable": 0o770}[how])


@pytest.mark.parametrize("how", ["world-writable", "group-writable", "owned by another user"])
def test_cache_others_can_write_is_not_used(how, cache, tmp_path):
    planted_from = _lm_of("ant", tmp_path)
    path = _lm_of("bee", tmp_path)
    # An entry for path's bytes that holds another model, as a planted one would.
    load_lm(planted_from)
    (planted,) = cache_entries(cache)
    load_lm(path)
    (genuine,) = set(cache_entries(cache)) - {planted}
    genuine.write_bytes(planted.read_bytes())
    planted.unlink()
    _share(cache / "mtqe", how)
    loaded = load_lm(path)
    assert "bee" in loaded.vocab and "ant" not in loaded.vocab
    # Nothing was stored or rewritten either.
    assert cache_entries(cache) == [genuine]
    assert genuine.read_bytes() == _entry_bytes(planted_from, tmp_path / "private")


def _entry_bytes(path, directory):
    """The bytes of the entry a load of ``path`` stores in an empty cache at ``directory``."""
    with model_cache(directory):
        load_lm(path)
    (entry,) = cache_entries(directory)
    return entry.read_bytes()


# Pipes: a FIFO is read once, as it arrives, and never cached.

def _load_fifo(load, fifo, data):
    """``load(fifo)`` while a thread writes ``data`` into the FIFO."""
    writer = threading.Thread(target=fifo.write_bytes, args=(data,), daemon=True)
    writer.start()
    model = load(fifo)
    writer.join(timeout=10)
    assert not writer.is_alive()
    return model


def test_fifo_model_loads_cold_and_warm(cache, tmp_path):
    path = tmp_path / "m.lm"
    train_lm(SENTENCES, 3).save(path)
    fifo = tmp_path / "fifo.lm"
    os.mkfifo(fifo)
    # Cold: nothing cached, and the pipe adds no entry.
    expected = load_lm(path)
    for entry in cache_entries(cache):
        entry.unlink()
    _assert_same_lm(expected, _load_fifo(load_lm, fifo, path.read_bytes()), SENTENCES)
    assert cache_entries(cache) == []
    # Warm: the file's entry is cached, and the pipe is still parsed.
    load_lm(path)
    (entry,) = cache_entries(cache)
    stored = entry.read_bytes()
    _assert_same_lm(expected, _load_fifo(load_lm, fifo, path.read_bytes()), SENTENCES)
    assert cache_entries(cache) == [entry] and entry.read_bytes() == stored


# Through extract: a cache that cannot be used changes nothing, and a model
# path that cannot be opened fails as it did before there was a cache.

@pytest.fixture
def toy_extract(tmp_path):
    """``extract(out, **swap)``: extract on toy models, swapping in model paths by flag name."""
    data = write_toy_dataset(tmp_path, n_pairs=20, seed=3)
    models = {"src_lm": tmp_path / "src.lm", "tgt_lm": tmp_path / "tgt.lm",
              "lexicon": tmp_path / "lexicon.tsv"}
    for argv in (
        ["build-lm", "--corpus", data["src"], "--side", "source", "--out", models["src_lm"]],
        ["build-lm", "--corpus", data["tgt"], "--side", "target", "--out", models["tgt_lm"]],
        ["build-lexicon", "--pairs-src", data["src"], "--pairs-tgt", data["tgt"],
         "--out", models["lexicon"]],
    ):
        assert run_cli(*argv) == 0

    def extract(out, **swap):
        files = {**models, **swap}
        return run_cli("extract", "--pairs-src", data["src"], "--pairs-tgt", data["tgt"],
                       "--src-lm", files["src_lm"], "--tgt-lm", files["tgt_lm"],
                       "--lexicon", files["lexicon"], "--judgments", data["judgments"],
                       "--out", out)

    return extract


def test_unwritable_cache_changes_no_output(toy_extract, tmp_path, capsys):
    def run(out):
        capsys.readouterr()
        code = toy_extract(out)
        return code, out.read_bytes(), capsys.readouterr()

    with model_cache(tmp_path / "xdg"):
        usable = run(tmp_path / "usable.csv")
    # Root writes through any mode bits, so the cache sits under a file.
    (tmp_path / "file").write_text("not a directory\n", encoding="utf-8")
    with model_cache(tmp_path / "file" / "xdg"):
        unusable = run(tmp_path / "unusable.csv")
    assert unusable == usable
    assert usable[0] == 0 and usable[2].err == ""


@pytest.mark.parametrize("name", ["src_lm", "lexicon"])
@pytest.mark.parametrize("fault", ["missing", "directory"])
def test_unopenable_model_keeps_its_message(name, fault, toy_extract, cache, tmp_path, capsys):
    bad = tmp_path / fault
    if fault == "directory":
        bad.mkdir()
    with pytest.raises(OSError) as info:
        open(bad, "rb")
    capsys.readouterr()
    assert toy_extract(tmp_path / "out.csv", **{name: bad}) == 2
    assert capsys.readouterr().err == f"error: {info.value}\n"
    assert not (tmp_path / "out.csv").exists()


# Layout: a payload that changes shape must come with a new payload version.

# {payload version: (sha256 of repr(payload) of the toy LM, of the toy lexicon)}
PAYLOAD_DIGESTS = {
    1: ("cc6177c7071b3bdca6f9457ec81faeb1a84cce6ccca5d64805e5c72660a8fc2e",
        "f5c69c0be30d514d7cd1c591b0540cdcf224ccdcead38410b8c9dd3756be6043"),
    3: ("9f13e67435d1313d035e4fcc27a744b4878f30ebffe34df765d542b701344ba8",
        "f5c69c0be30d514d7cd1c591b0540cdcf224ccdcead38410b8c9dd3756be6043"),
}


def test_payload_layout_is_pinned_to_its_version(cache, tmp_path):
    train_lm(SENTENCES, 3).save(tmp_path / "m.lm")
    TranslationLexicon(ENTRIES).save(tmp_path / "lexicon.tsv")
    load_lm(tmp_path / "m.lm")
    (lm_entry,) = cache_entries(cache)
    load_lexicon(tmp_path / "lexicon.tsv")
    (lexicon_entry,) = set(cache_entries(cache)) - {lm_entry}
    digests = tuple(
        hashlib.sha256(repr(_payload(entry.read_bytes())).encode("utf-8")).hexdigest()
        for entry in (lm_entry, lexicon_entry)
    )
    assert digests == PAYLOAD_DIGESTS.get(fileio._PAYLOAD_VERSION), (
        "the cached payload's layout changed: bump fileio._PAYLOAD_VERSION, "
        f"so no entry of the old layout is read, and pin {digests} under the new version"
    )
