"""End-to-end benchmark of the PEACE reproduction (see ../README.md)."""
