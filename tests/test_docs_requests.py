"""Every job request the docs show is one the server accepts.

The ``json`` code blocks of ``docs/*.md`` hold wire examples, some
blocks several objects in a row.  Each object whose ``op`` is a job op
and that carries no ``ok`` field (responses do) is a request: it must
decode into a :class:`~repro.service.jobs.JobRequest` and name only its
fields.
"""

import json
import pathlib
import re

from repro.service.jobs import JobRequest

DOCS = pathlib.Path(__file__).parent.parent / "docs"
JOB_OPS = ("entail", "chase", "batch_entail")


def _json_objects(text: str):
    decoder = json.JSONDecoder()
    for block in re.findall(r"```json\n(.*?)```", text, re.S):
        pos = 0
        while True:
            while pos < len(block) and block[pos].isspace():
                pos += 1
            if pos == len(block):
                break
            obj, pos = decoder.raw_decode(block, pos)
            yield obj


def _documented_requests() -> list:
    found = []
    for path in sorted(DOCS.glob("*.md")):
        for obj in _json_objects(path.read_text()):
            if isinstance(obj, dict) and obj.get("op") in JOB_OPS and "ok" not in obj:
                found.append((path.name, obj))
    return found


def test_documented_job_requests_are_accepted():
    found = _documented_requests()
    assert len(found) >= 3
    fields = set(JobRequest.__dataclass_fields__)
    for name, obj in found:
        JobRequest.from_obj(obj)
        assert set(obj) <= fields, (name, sorted(set(obj) - fields))
