"""Decomposition: modality detection, flag rules, reconciliation."""

from __future__ import annotations

import time

from hypothesis import given, settings, strategies as st

from supervisord.decomposition import (
    FLAG_REQUIRED_MODALITIES,
    classify_flag_detail,
    detect_modality,
    modality_from_magic,
    reconcile_flag,
)
from supervisord.state import Attachment, ExecutionFlag, Modality


class TestDetectModality:
    def test_extension_audio(self):
        att = Attachment("path", "clip.mp3", declared_name="clip.mp3")
        assert detect_modality(att) is Modality.AUDIO

    def test_extensionless_url_uses_declared_mime(self):
        att = Attachment("url", "https://cdn/x", mime="application/pdf")
        assert detect_modality(att) is Modality.DOCUMENT

    def test_renamed_png_detected_by_signature(self, tmp_path):
        path = tmp_path / "notes.txt2"
        path.write_bytes(b"\x89PNG\r\n\x1a\n" + b"\x00" * 16)
        att = Attachment("path", str(path))
        assert detect_modality(att) is Modality.IMAGE

    def test_inline_bytes_signature(self):
        att = Attachment("bytes", b"%PDF-1.7 ...")
        assert detect_modality(att) is Modality.DOCUMENT

    def test_extensionless_url_without_mime_is_unknown(self):
        att = Attachment("url", "https://cdn/mystery")
        assert detect_modality(att) is Modality.UNKNOWN

    def test_riff_discrimination(self):
        assert modality_from_magic(b"RIFF\x00\x00\x00\x00WAVEfmt ") is Modality.AUDIO
        assert modality_from_magic(b"RIFF\x00\x00\x00\x00WEBPVP8 ") is Modality.IMAGE
        assert modality_from_magic(b"RIFF\x00\x00\x00\x00AVI LIST") is Modality.VIDEO

    def test_detection_deterministic(self):
        att = Attachment("bytes", b"\xff\xd8\xff\xe0JFIF")
        assert detect_modality(att) is detect_modality(att)

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
        import json
        from importlib import resources

        rows = json.loads(
            resources.files("supervisord.data").joinpath("labeled_queries.json").read_text()
        )
        assert len(rows) == 150
        sample = rows[:: len(rows) // 10]
        for row in sample:
            modalities = {Modality(m) for m in row["modalities"]}
            assert classify_flag_detail(row["query"], modalities).flag.value == row["expected_flag"]


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


def test_decomposition_under_400ms():
    attachments = [
        Attachment("path", "a.mp3", declared_name="a.mp3"),
        Attachment("bytes", b"\x89PNG\r\n\x1a\n0000"),
    ]
    start = time.perf_counter()
    modalities = {detect_modality(a) for a in attachments}
    flag = reconcile_flag(
        classify_flag_detail("transcribe this recording", modalities).flag, modalities
    )
    elapsed_ms = (time.perf_counter() - start) * 1000
    assert flag is ExecutionFlag.AUDIO
    assert elapsed_ms < 400
