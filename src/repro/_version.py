"""Version information for the :mod:`repro` package."""

__all__ = ["__version__", "PAPER_TITLE", "PAPER_ARXIV"]

__version__ = "1.2.0"

#: Title of the reproduced paper.
PAPER_TITLE = (
    "Apple vs. Oranges: Evaluating the Apple Silicon M-Series SoCs "
    "for HPC Performance and Efficiency"
)

#: arXiv identifier of the reproduced paper.
PAPER_ARXIV = "2502.05317"
