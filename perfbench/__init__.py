"""End-to-end and per-layer benchmark of the UniLoc reproduction (see README.md)."""
