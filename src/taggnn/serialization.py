"""Model directory format: a JSON manifest plus one packed binary blob.

``manifest.json`` records dimensions, the variant flags, a vocabulary hash,
the tensor table (name, shape, byte offset) and ``params_sha256``, the
sha256 of ``params.bin`` and the variant flags; ``params.bin`` holds every
tensor as row-major little-endian float64 in manifest order.  ``vocab.json``
carries the token list so a saved model can be applied to freshly loaded
data.
"""

import hashlib
import json
import os

import numpy as np

from .graph import Vocabulary
from .model import ModelVariant, TagGNNModel

FORMAT = "taggnn-model-v1"
MANIFEST_KEYS = ("format", "dim", "gamma", "variant", "n_words", "n_tags", "tags",
                 "vocab_sha256", "params_sha256", "meta", "tensors")
VARIANT_KEYS = ("kind", "heterogeneous", "use_tag_names", "use_tag_ids", "n_layers")


def _tensor_table(model):
    """Manifest entries for the model's registry: name, shape and byte offset in params.bin."""
    table, offset = [], 0
    for name, tensor in model.named_parameters():
        table.append({"name": name, "shape": list(tensor.shape), "offset": offset})
        offset += 8 * tensor.data.size
    return table, offset


def _params_sha256(blob, variant):
    """sha256 of ``params.bin``'s bytes followed by the canonical JSON of the variant flags."""
    digest = hashlib.sha256(blob)
    digest.update(json.dumps({k: variant[k] for k in VARIANT_KEYS}, sort_keys=True,
                             separators=(",", ":")).encode("utf-8"))
    return digest.hexdigest()


def save_model(model, vocab, directory, tag_ids, meta=None):
    """Write the model directory; a previous save there stays whole until this one is.

    Every file is first written under a temporary name in the directory, and
    only when all are written is each renamed into place, ``manifest.json``
    last.  A write that fails removes the temporary files and leaves the
    directory as it was; ``tag_ids`` not ``n_tags`` strings raise ``ValueError`` first.
    """
    tags, n_tags = list(tag_ids), model.embeddings.tag_ids.data.shape[0]
    if len(tags) != n_tags or not all(isinstance(t, str) for t in tags):
        raise ValueError(f"tag_ids must be n_tags = {n_tags} strings, got {len(tags)} ids")
    os.makedirs(directory, exist_ok=True)
    tensors, _ = _tensor_table(model)
    variant = {k: getattr(model.variant, k) for k in VARIANT_KEYS}
    blob = b"".join(np.ascontiguousarray(t.data, dtype="<f8").tobytes()
                    for t in model.parameters())
    manifest = {
        "format": FORMAT,
        "dim": model.dim,
        "gamma": model.gamma,
        "variant": variant,
        "n_words": model.embeddings.words.data.shape[0],
        "n_tags": n_tags,
        "tags": tags,
        "vocab_sha256": vocab.sha256(),
        "params_sha256": _params_sha256(blob, variant),
        "meta": dict(meta or {}),
        "tensors": tensors,
    }
    files = (("params.bin", blob),
             ("vocab.json", _json_line({"tokens": vocab.id_to_token[1:],
                                        "min_count": vocab.min_count})),
             ("manifest.json", _json_line(manifest, indent=2, sort_keys=True)))
    temps = []
    try:
        for name, content in files:
            temps.append(os.path.join(directory, f".{name}.tmp"))
            with open(temps[-1], "wb") as fh:
                fh.write(content)
    except BaseException:
        for temp in temps:
            if os.path.exists(temp):
                os.remove(temp)
        raise
    for temp, (name, _) in zip(temps, files):
        os.replace(temp, os.path.join(directory, name))


def _json_line(value, **kwargs):
    return (json.dumps(value, **kwargs) + "\n").encode("utf-8")


def _read(directory, name, binary=False):
    path = os.path.join(directory, name)
    if not os.path.isfile(path):
        raise ValueError(f"model directory {os.fspath(directory)!r} has no {name}")
    if binary:
        with open(path, "rb") as fh:
            return fh.read()
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{name}: {exc}") from None


def _require(mapping, keys, where):
    if not isinstance(mapping, dict):
        raise ValueError(f"{where} is not a JSON object")
    missing = [k for k in keys if k not in mapping]
    if missing:
        raise ValueError(f"{where} is missing {', '.join(map(repr, missing))}")


def _table_diff(got, want):
    got = {e.get("name"): e for e in got if isinstance(e, dict)}
    want = {e["name"]: e for e in want}
    missing = [n for n in want if n not in got]
    extra = sorted((n for n in got if n not in want), key=str)
    if missing or extra:
        return f"missing {missing}, unexpected {extra}"
    wrong = [n for n in want if got[n] != want[n]]
    return f"{got[wrong[0]]}, expected {want[wrong[0]]}" if wrong else "tensors out of order"


def load_model(directory):
    """Rebuild (model, vocab, manifest) from a model directory.

    The model is initialised from the manifest's dimensions and every
    registry tensor is copied in by name.  A missing file or key, a value of
    the wrong JSON type, a word table whose row count is not the vocabulary
    size, a ``tags`` list that is not ``n_tags`` strings, a tensor table that
    does not match the registry, a ``params.bin`` of the wrong length, or a
    ``params.bin`` or variant that does not match ``params_sha256`` raises
    ``ValueError``.
    """
    manifest = _read(directory, "manifest.json")
    _require(manifest, MANIFEST_KEYS, "manifest.json")
    if manifest["format"] != FORMAT:
        raise ValueError(f"unsupported model format {manifest['format']!r}")
    for key, kind, what in (("gamma", (int, float), "a number"), ("meta", dict, "an object"),
                            ("tensors", list, "a list"), ("params_sha256", str, "a string")):
        if not isinstance(manifest[key], kind) or isinstance(manifest[key], bool):
            raise ValueError(f"manifest.json {key} must be {what}, got {manifest[key]!r}")
    vdata = _read(directory, "vocab.json")
    _require(vdata, ("tokens", "min_count"), "vocab.json")
    tokens, min_count = vdata["tokens"], vdata["min_count"]
    if not isinstance(tokens, list) or not all(isinstance(t, str) for t in tokens):
        raise ValueError("vocab.json tokens must be a list of strings")
    if type(min_count) is not int:   # a JSON true or false is no count
        raise ValueError(f"vocab.json min_count must be an integer, got {min_count!r}")
    vocab = Vocabulary(tokens, min_count=min_count)
    if vocab.sha256() != manifest["vocab_sha256"]:
        raise ValueError("vocabulary hash mismatch; model directory is inconsistent")
    blob = _read(directory, "params.bin", binary=True)

    v = manifest["variant"]
    _require(v, VARIANT_KEYS, "manifest.json variant")
    for key in ("heterogeneous", "use_tag_names", "use_tag_ids"):
        if not isinstance(v[key], bool):
            raise ValueError(f"manifest.json variant.{key} must be true or false, got {v[key]!r}")
    counts = (manifest["dim"], manifest["n_words"], manifest["n_tags"], v["n_layers"])
    if not all(type(c) is int for c in counts) or min(counts[:3]) <= 0:
        raise ValueError(f"manifest.json dim, n_words, n_tags and n_layers must be integers "
                         f"(the first three positive), got {counts}")
    dim, n_words, n_tags, n_layers = counts
    tags = manifest["tags"]
    if not isinstance(tags, list) or list(map(type, tags)) != [str] * n_tags:
        raise ValueError(f"manifest.json tags must be a list of n_tags = {n_tags} strings")
    if n_words != len(vocab):
        raise ValueError(f"manifest.json n_words is {n_words}, but vocab.json holds "
                         f"{len(vocab)} words")
    variant = ModelVariant(**{k: v[k] for k in VARIANT_KEYS})
    # every layer holds at least one dim x dim matrix: refuse to allocate past params.bin
    if 8 * dim * (n_words + n_tags + n_layers * dim) > len(blob):
        raise ValueError("manifest.json dimensions exceed the size of params.bin")
    model = TagGNNModel.init(n_words, n_tags, dim, variant, gamma=manifest["gamma"])

    table, size = _tensor_table(model)
    if manifest["tensors"] != table:
        raise ValueError("manifest.json tensor table does not match the model its dimensions "
                         f"imply: {_table_diff(manifest['tensors'], table)}")
    if len(blob) != size:
        raise ValueError(f"params.bin holds {len(blob)} bytes, the tensor table needs {size}")
    if _params_sha256(blob, v) != manifest["params_sha256"]:
        raise ValueError("params.bin and the variant flags do not match manifest.json "
                         "params_sha256; the model directory is corrupt or was edited")
    for tensor, entry in zip(model.parameters(), table):
        tensor.data[...] = np.frombuffer(blob, dtype="<f8", count=tensor.data.size,
                                         offset=entry["offset"]).reshape(tensor.shape)
    return model, vocab, manifest
