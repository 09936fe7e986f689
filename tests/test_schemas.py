"""The JSON schemas under docs/schemas are themselves valid.

Every artefact test validates against these files, so a schema with a
mistyped keyword or a wrong type name would make those checks vacuous or
crash them.  Each file must pass the draft 2020-12 metaschema that the tests
validate with, and its ``$id`` must name the file.
"""

import json
import pathlib

import jsonschema
import pytest

SCHEMAS = pathlib.Path(__file__).resolve().parent.parent / "docs" / "schemas"
SCHEMA_FILES = sorted(SCHEMAS.glob("*.json"))


def test_schema_directory_is_not_empty():
    assert len(SCHEMA_FILES) >= 10


@pytest.mark.parametrize("path", SCHEMA_FILES, ids=lambda p: p.name)
def test_schema_is_valid_and_named_by_its_file(path):
    schema = json.loads(path.read_text())
    assert schema["$schema"] == "https://json-schema.org/draft/2020-12/schema"
    jsonschema.Draft202012Validator.check_schema(schema)
    assert path.name.endswith(".schema.json")
    assert schema["$id"] == "qdepthlab/" + path.name.removesuffix(".schema.json")
