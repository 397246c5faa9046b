"""Outside-in wall-clock benchmark of the ``repro`` lakehouse (see run.py)."""
