"""The shipped reference models (``chaingraph/models/*.cg``)."""

from __future__ import annotations

from importlib import resources

from .lang import parse_model
from .plates import PlateModel

MODEL_NAMES: tuple[str, ...] = (
    "fig1a",
    "fig1b",
    "fig2",
    "fig3",
    "ffnet",
    "boltzmann",
    "cad",
    "coin",
    "banks",
)


def model_source(name: str) -> str:
    if name not in MODEL_NAMES:
        raise KeyError(f"unknown corpus model {name!r}; choose from {', '.join(MODEL_NAMES)}")
    return resources.files(__package__).joinpath("models", f"{name}.cg").read_text("utf-8")


def load(name: str) -> PlateModel:
    return parse_model(model_source(name), f"{name}.cg")
