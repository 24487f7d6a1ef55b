"""Run settings for tests: the FIGER profile's, as ``nfetc train`` fills
``HyperParams`` from the CLI's settings table, with some fields replaced."""

import dataclasses

from nfetc import cli

FIGER = cli._hyperparams(cli.PROFILES["figer"])


def figer_hp(**fields):
    """The FIGER profile's ``HyperParams`` with ``fields`` replaced, each
    checked as ``HyperParams`` checks it."""
    return dataclasses.replace(FIGER, **fields)
