"""Decomposition: modality detection, flag rules, reconciliation."""

from __future__ import annotations

import json
import time
from importlib import resources

from hypothesis import given, settings, strategies as st

from supervisord.decomposition import (
    FLAG_REQUIRED_MODALITIES,
    FlagRule,
    classify_flag_detail,
    detect_modality,
    load_flag_rules,
    modality_from_magic,
    reconcile_flag,
    score_flags,
)
from supervisord.state import FLAG_PRECEDENCE, Attachment, ExecutionFlag, Modality


class TestDetectModality:
    def test_extension_audio(self):
        att = Attachment("path", "clip.mp3", declared_name="clip.mp3")
        assert detect_modality(att) is Modality.AUDIO

    def test_renamed_png_detected_by_signature(self, tmp_path):
        path = tmp_path / "notes.txt2"
        path.write_bytes(b"\x89PNG\r\n\x1a\n" + b"\x00" * 16)
        att = Attachment("path", str(path))
        assert detect_modality(att) is Modality.IMAGE

    def test_inline_bytes_signature(self):
        assert modality_from_magic(b"%PDF-1.7 ...") is Modality.DOCUMENT

    def test_extensionless_url_without_mime_is_unknown(self):
        att = Attachment("url", "https://cdn/mystery")
        assert detect_modality(att) is Modality.UNKNOWN

    def test_riff_discrimination(self):
        assert modality_from_magic(b"RIFF\x00\x00\x00\x00WAVEfmt ") is Modality.AUDIO
        assert modality_from_magic(b"RIFF\x00\x00\x00\x00WEBPVP8 ") is Modality.IMAGE
        assert modality_from_magic(b"RIFF\x00\x00\x00\x00AVI LIST") is Modality.VIDEO

    def test_detection_deterministic(self, tmp_path):
        path = tmp_path / "photo"
        path.write_bytes(b"\xff\xd8\xff\xe0JFIF")
        att = Attachment("path", str(path))
        assert detect_modality(att) is detect_modality(att) is Modality.IMAGE

    def test_minimum_extension_map(self):
        cases = {
            "image": ["jpg", "jpeg", "png", "gif", "webp"],
            "audio": ["mp3", "wav", "m4a", "flac"],
            "video": ["mp4", "avi", "mov", "mkv"],
            "document": ["pdf", "docx", "xlsx", "pptx"],
        }
        for modality, exts in cases.items():
            for ext in exts:
                att = Attachment("path", f"f.{ext}")
                assert detect_modality(att) is Modality(modality), ext


class TestClassifyFlag:
    def test_audio_rule(self):
        flag = classify_flag_detail("transcribe this recording", {Modality.AUDIO}).flag
        assert flag is ExecutionFlag.AUDIO

    def test_text_only_routellm(self):
        assert classify_flag_detail("summarize this text", set()).flag is ExecutionFlag.ROUTELLM

    def test_multi_document_complex(self):
        flag = classify_flag_detail(
            "compare these three reports and chart trends", {Modality.DOCUMENT}
        ).flag
        assert flag is ExecutionFlag.COMPLEX

    def test_labeled_fixture_spot_checks(self):
        rows = labeled_queries()
        assert len(rows) == 150
        sample = rows[:: len(rows) // 10]
        for row in sample:
            modalities = {Modality(m) for m in row["modalities"]}
            assert classify_flag_detail(row["query"], modalities).flag.value == row["expected_flag"]

    def test_partial_rules_table_scores_missing_flags_zero(self, tmp_path):
        bundled = json.loads(bundled_text("flag_rules.json"))
        path = tmp_path / "rules.json"
        path.write_text(json.dumps({k: bundled[k] for k in ("audio", "moe")}))
        partial = load_flag_rules(str(path))
        filled = {flag: partial.get(flag, FlagRule()) for flag in FLAG_PRECEDENCE}
        assert len(partial) == 2
        for row in labeled_queries():
            modalities = {Modality(m) for m in row["modalities"]}
            scores = score_flags(row["query"], modalities, partial)
            assert all(scores[flag] == 0.0 for flag in FLAG_PRECEDENCE if flag not in partial)
            expected = score_flags(row["query"], modalities, filled)
            assert scores == expected
            best = max(FLAG_PRECEDENCE, key=lambda f: (expected[f], -FLAG_PRECEDENCE.index(f)))
            assert classify_flag_detail(row["query"], modalities, rules=partial).flag is best


def bundled_text(name: str) -> str:
    return resources.files("supervisord.data").joinpath(name).read_text("utf-8")


def labeled_queries() -> list[dict]:
    return json.loads(bundled_text("labeled_queries.json"))


class TestReconcileFlag:
    def test_vision_without_image_demoted(self):
        assert reconcile_flag(ExecutionFlag.VISION, set()) is ExecutionFlag.MOE

    def test_non_modality_flag_unchanged(self):
        assert reconcile_flag(ExecutionFlag.ROUTELLM, set()) is ExecutionFlag.ROUTELLM

    def test_consistent_pair_unchanged(self):
        assert reconcile_flag(ExecutionFlag.AUDIO, {Modality.AUDIO}) is ExecutionFlag.AUDIO

    def test_document_accepts_scanned_image(self):
        assert (
            reconcile_flag(ExecutionFlag.DOCUMENT, {Modality.IMAGE})
            is ExecutionFlag.DOCUMENT
        )

    @settings(max_examples=300, deadline=None)
    @given(
        st.sampled_from(list(ExecutionFlag)),
        st.frozensets(st.sampled_from(list(Modality)), max_size=4),
    )
    def test_reconcile_idempotent_and_safe(self, flag, modalities):
        once = reconcile_flag(flag, set(modalities))
        assert reconcile_flag(once, set(modalities)) is once
        required = FLAG_REQUIRED_MODALITIES.get(once)
        if required is not None:
            assert required & set(modalities)


def test_decomposition_under_400ms(tmp_path):
    image = tmp_path / "image"
    image.write_bytes(b"\x89PNG\r\n\x1a\n0000")
    attachments = [
        Attachment("path", "a.mp3", declared_name="a.mp3"),
        Attachment("path", str(image)),
    ]
    start = time.perf_counter()
    modalities = {detect_modality(a) for a in attachments}
    flag = reconcile_flag(
        classify_flag_detail("transcribe this recording", modalities).flag, modalities
    )
    elapsed_ms = (time.perf_counter() - start) * 1000
    assert flag is ExecutionFlag.AUDIO
    assert elapsed_ms < 400
