"""cognet: pairwise cognate identification toolkit.

Featurizes ASJP transcriptions into binary phonetic-feature matrices,
trains small convolutional pair classifiers and SVM baselines over string
similarity or PMI features, and evaluates them under cross-concept and
cross-family splits.

``import cognet`` loads no layer: each submodule named in ``__all__`` is
imported the first time it is read as ``cognet.<name>`` (PEP 562), so a
process pays only for the layers it uses.
"""

__version__ = "0.1.0"

__all__ = [
    "metrics", "neural", "phoneme", "pmi", "similarity", "svm",
    "synthetic", "wordlists", "__version__",
]


def __getattr__(name: str):
    if name in __all__:  # the import binds the submodule here, so this runs once per name
        __import__(f"{__name__}.{name}")  # not importlib.import_module, which -X importtime does not log
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
