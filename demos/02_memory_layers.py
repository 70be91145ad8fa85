"""Layered conversation memory: scoring, retrieval, and compression.

Builds a multi-modal session history, shows how the relevance score combines
cosine similarity, recency decay, and modality alignment, then triggers
summary compression.
"""

from supervisord.memory import HashingEmbedder, MemoryStore, score_memory
from supervisord.state import Modality

embedder = HashingEmbedder(dimension=64)
store = MemoryStore()

turns = [
    ("We reviewed the quarterly revenue numbers for the importer project", Modality.TEXT),
    ("Uploaded a chart of weekly active users", Modality.IMAGE),
    ("Transcript of the planning call about the importer launch", Modality.AUDIO),
    ("The contract PDF with payment terms for vendor Acme", Modality.DOCUMENT),
    ("Demo video of the importer handling malformed rows", Modality.VIDEO),
    ("Decided to gate the importer launch on the error-rate dashboard", Modality.TEXT),
    ("Sketch of the new onboarding flow", Modality.IMAGE),
]
for text, modality in turns:
    store.add_turn(text, modality, embedder)

print(f"history: {store.turn_count} turns; short-term window holds "
      f"{[r.turn_index for r in store.short_term]}")

query = "what did we decide about the importer launch"
query_vec = embedder.embed(query)

print("\nper-record scores (similarity 0.5 / recency 0.3 / modality 0.2):")
for rec in store.full_history:
    s = score_memory(rec, query_vec, Modality.TEXT, now_turn=store.turn_count + 1)
    print(f"  turn {rec.turn_index} [{rec.modality.value:9}] {s:.3f}  {rec.content[:48]}")

top = store.retrieve_relevant(query_vec, Modality.TEXT, k=3)
print("\ntop-3 retrieved:", [r.turn_index for r in top])

# force a summary (normally triggered above 8,000 history tokens)
store.maybe_compress(force=True, on_event=lambda msg: print(f"\ncompression: {msg}"))
print(f"compressed summary: {store.compressed.text[:100]}")
print(f"retrievable records after compression: {store.retrievable_count}")
