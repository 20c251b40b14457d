"""Every public name the package table lists resolves and is listed by dir()."""

import commlab


def test_every_export_resolves():
    listed = dir(commlab)
    for names in commlab._EXPORTS.values():
        for name in names:
            getattr(commlab, name)
            assert name in listed
