"""The External layer for ETL jobs: an XML exchange format.

"IBM WebSphere DataStage uses proprietary file formats to represent and
exchange ETL jobs ... The only way to access these DataStage jobs is by
serializing them into an XML format and then compiling that serialization
into an Intermediate layer graph" (paper sections III, V-A). This module
is our equivalent of that DSX/XML exchange format: a job document with
``<stage>`` elements (type + configuration) and ``<link>`` elements
(source/target ports).

Stage configuration dictionaries (``Stage.to_config``) are encoded
generically: dict → child elements, list → repeated ``<item>`` elements,
scalars → text with a ``type`` attribute, so new stages serialize without
touching this module.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from typing import Dict, Optional

from repro.errors import SerializationError
from repro.etl.model import Job
from repro.etl.stages import STAGE_CLASSES

_FORMAT_VERSION = "1.0"


def _encode_value(parent: ET.Element, tag: str, value) -> None:
    element = ET.SubElement(parent, tag)
    if value is None:
        element.set("type", "null")
    elif isinstance(value, bool):
        element.set("type", "bool")
        element.text = "true" if value else "false"
    elif isinstance(value, int):
        element.set("type", "int")
        element.text = str(value)
    elif isinstance(value, float):
        element.set("type", "float")
        element.text = repr(value)
    elif isinstance(value, str):
        element.set("type", "str")
        element.text = value
    elif isinstance(value, (list, tuple)):
        element.set("type", "list")
        for item in value:
            _encode_value(element, "item", item)
    elif isinstance(value, dict):
        element.set("type", "dict")
        for key, item in value.items():
            child = ET.SubElement(element, "entry")
            child.set("key", str(key))
            _encode_value(child, "value", item)
    else:
        raise SerializationError(
            f"cannot encode configuration value {value!r} ({type(value).__name__})"
        )


def _decode_value(element: ET.Element):
    kind = element.get("type", "str")
    if kind == "null":
        return None
    if kind == "bool":
        return element.text == "true"
    if kind == "int":
        return int(element.text)
    if kind == "float":
        return float(element.text)
    if kind == "str":
        return element.text or ""
    if kind == "list":
        return [_decode_value(child) for child in element]
    if kind == "dict":
        result = {}
        for entry in element:
            (value_el,) = list(entry)
            result[entry.get("key")] = _decode_value(value_el)
        return result
    raise SerializationError(f"unknown encoded type {kind!r}")


def job_to_xml(job: Job) -> str:
    """Serialize a job to the external XML exchange format."""
    root = ET.Element("etljob")
    root.set("name", job.name)
    root.set("version", _FORMAT_VERSION)
    stages_el = ET.SubElement(root, "stages")
    for stage in job.stages:
        stage_el = ET.SubElement(stages_el, "stage")
        stage_el.set("name", stage.name)
        stage_el.set("type", stage.STAGE_TYPE)
        if getattr(stage, "on_error", None):
            stage_el.set("onError", stage.on_error)
        if stage.annotations:
            annotations_el = ET.SubElement(stage_el, "annotations")
            for key, value in sorted(stage.annotations.items()):
                note = ET.SubElement(annotations_el, "note")
                note.set("key", key)
                note.text = value
        config_el = ET.SubElement(stage_el, "configuration")
        _encode_value(config_el, "config", stage.to_config())
    links_el = ET.SubElement(root, "links")
    for edge in job.links:
        link_el = ET.SubElement(links_el, "link")
        link_el.set("name", edge.name)
        link_el.set("from", edge.src)
        link_el.set("fromPort", str(edge.src_port))
        link_el.set("to", edge.dst)
        link_el.set("toPort", str(edge.dst_port))
        if edge.is_reject:
            link_el.set("kind", edge.kind)
    ET.indent(root)
    return ET.tostring(root, encoding="unicode")


def job_from_xml(text: str) -> Job:
    """Parse the external XML exchange format back into a job.

    Custom stages come back without their implementation bound (the
    external procedure is not serializable) — exactly the black-box
    situation the UNKNOWN operator models.
    """
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        raise SerializationError(f"malformed job XML: {exc}") from exc
    if root.tag != "etljob":
        raise SerializationError(f"not a job document (root {root.tag!r})")
    job = Job(root.get("name", "job"))
    stages_el = root.find("stages")
    if stages_el is None:
        raise SerializationError("job document has no <stages> element")
    for stage_el in stages_el.findall("stage"):
        stage_type = stage_el.get("type")
        stage_class = STAGE_CLASSES.get(stage_type)
        if stage_class is None:
            raise SerializationError(f"unknown stage type {stage_type!r}")
        annotations: Dict[str, str] = {}
        annotations_el = stage_el.find("annotations")
        if annotations_el is not None:
            for note in annotations_el.findall("note"):
                annotations[note.get("key")] = note.text or ""
        config_el = stage_el.find("configuration/config")
        config = _decode_value(config_el) if config_el is not None else {}
        config = _normalize_config(config)
        stage = stage_class.from_config(
            stage_el.get("name"), config, annotations=annotations
        )
        on_error = stage_el.get("onError")
        if on_error:
            from repro.resilience import check_policy

            stage.on_error = check_policy(on_error)
        job.add(stage)
    links_el = root.find("links")
    for link_el in links_el.findall("link") if links_el is not None else []:
        job.link(
            link_el.get("from"),
            link_el.get("to"),
            name=link_el.get("name"),
            src_port=int(link_el.get("fromPort", "0")),
            dst_port=int(link_el.get("toPort", "0")),
            kind=link_el.get("kind", "data"),
        )
    return job


def _normalize_config(config):
    """Tuples become lists through XML; stages accept both, nothing to do
    today — kept as an extension point for format migrations."""
    return config


def write_job(job: Job, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(job_to_xml(job))


def read_job(path: str) -> Job:
    with open(path, "r", encoding="utf-8") as handle:
        return job_from_xml(handle.read())


__all__ = ["job_to_xml", "job_from_xml", "write_job", "read_job"]
