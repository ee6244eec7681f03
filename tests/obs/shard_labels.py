"""Shared check: one span tree, one shard.

Along every root-to-leaf path of a span tree the non-empty ``shard``
labels must agree (an unlabelled span - a multi-shard batch root, a
``plan.compile`` - names no shard and is skipped over).  That holds for
every path exactly when every labelled span agrees with its nearest
labelled ancestor, which is what this walks; CI's ``chaos`` job calls it
on ``chaos-trace.json.spans.jsonl``.
"""


def mixed_label_spans(spans):
    """``(ancestor, span)`` for every span - in its exported form, a
    ``spans.jsonl`` line - whose shard label differs from its nearest
    labelled ancestor's."""
    by_id = {span["span_id"]: span for span in spans}
    mixed = []
    for span in spans:
        if not span.get("shard"):
            continue
        ancestor = by_id.get(span["parent_id"])
        while ancestor is not None and not ancestor.get("shard"):
            ancestor = by_id.get(ancestor["parent_id"])
        if ancestor is not None and ancestor["shard"] != span["shard"]:
            mixed.append((ancestor, span))
    return mixed
