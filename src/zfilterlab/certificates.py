"""Machine-checkable certificates with canonical serialization.

A certificate is a kind tag, the run parameters (registry, ambient and
command-specific knobs) and a kind-specific payload, and it records only
what the checker reads, and nothing the checker derives from the other
fields (schema 10): how a run reached its result is no part of the
document.  No certificate records a truncation: a property-(B) refutation
records its point with the cover's sets (`CounterexamplePoint`) or with the
one absorption failure the point breaks (`Contradiction`), and nothing else
(schema 12).  The registry, a list of
``label=pre:period@rank`` strings in the CLI's ``-r`` grammar (schema 11),
is the only place a branch's word and rank are written; the payload and the
other params name a branch by its label or by its position.  Serialization
is canonical (sorted keys, fixed separators, no floats), and a digest over
the canonical body makes any byte-level tamper detectable before semantic
re-verification even starts.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Any

from ._record import Record

SCHEMA_VERSION = 12

KINDS = (
    "SeparatorWitness",
    "CoverSet",
    "ExceptionList",
    "InclusionChain",
    "Contradiction",
    "CounterexamplePoint",
)


# the top-level keys of a serialized certificate
FIELDS = ("schema", "kind", "params", "payload", "digest")


class CertificateError(ValueError):
    """Raised for malformed, unparseable, or tampered certificate data."""


def canonical_json(value: Any) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"), ensure_ascii=True)


def _body(kind: str, params: dict, payload: dict) -> dict:
    return {"schema": SCHEMA_VERSION, "kind": kind, "params": params, "payload": payload}


def _text_digest(body: str) -> str:
    """Digest of a certificate body in its canonical serialization."""
    return hashlib.sha256(body.encode()).hexdigest()


def body_digest(kind: str, params: dict, payload: dict) -> str:
    return _text_digest(canonical_json(_body(kind, params, payload)))


# the default ``params`` and ``payload``: each certificate gets a new empty dict
_NEW: dict = {}


class Certificate(Record):
    __slots__ = ("kind", "params", "payload")

    def __init__(self, kind: str, params: dict = _NEW, payload: dict = _NEW) -> None:
        if kind not in KINDS:
            raise CertificateError(f"unknown certificate kind {kind!r}")
        if not (isinstance(params, dict) and isinstance(payload, dict)):
            raise CertificateError("params and payload must be objects")
        self.kind = kind
        self.params = {} if params is _NEW else params
        self.payload = {} if payload is _NEW else payload

    def digest(self) -> str:
        return body_digest(self.kind, self.params, self.payload)

    def to_json(self) -> str:
        body = canonical_json(_body(self.kind, self.params, self.payload))
        # "digest" sorts before every other key, so it opens the document
        return f'{{"digest":"{_text_digest(body)}",{body[1:]}'

    @classmethod
    def from_json(cls, text: str | bytes) -> "Certificate":
        try:
            doc = json.loads(text)
        # ValueError covers bad JSON, bad UTF-8 and over-long integers
        except (ValueError, RecursionError) as exc:
            raise CertificateError(f"not valid JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise CertificateError("certificate document must be a JSON object")
        for key in FIELDS:
            if key not in doc:
                raise CertificateError(f"missing field {key!r}")
        # the digest is taken over the integer version, so a float equal to it
        # would pass with bytes that are not canonical
        if type(doc["schema"]) is not int or doc["schema"] != SCHEMA_VERSION:
            raise CertificateError(f"unsupported schema version {doc['schema']!r}")
        extra = sorted(set(doc) - set(FIELDS))
        if extra:
            # the digest covers only the known fields
            raise CertificateError(f"unexpected field {extra[0]!r}")
        cert = cls(doc["kind"], doc["params"], doc["payload"])
        try:
            digest = cert.digest()
        except RecursionError as exc:
            raise CertificateError("certificate nests too deeply to digest") from exc
        if digest != doc["digest"]:
            raise CertificateError("digest mismatch: certificate was altered")
        return cert

    def write(self, path: str) -> None:
        """Atomic write: temp file in the same directory, then rename.  The
        temp file is made with mode 0o666, so the umask applies as to ``open``,
        and the encoded document goes straight to its descriptor."""
        directory = os.path.dirname(os.path.abspath(path)) or "."
        tmp = os.path.join(directory, f"tmp{os.urandom(8).hex()}.tmp")
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            try:
                data = memoryview(f"{self.to_json()}\n".encode())
                while data:  # a write may take only part of what it is given
                    data = data[os.write(fd, data):]
            finally:
                os.close(fd)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise

    @classmethod
    def read(cls, path: str) -> "Certificate":
        with open(path, "rb") as fh:
            return cls.from_json(fh.read())
