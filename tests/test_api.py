import esdirkopt


def test_every_exported_name_resolves():
    namespace = {}
    exec("from esdirkopt import *", namespace)
    assert set(esdirkopt.__all__) <= namespace.keys()
    assert len(set(esdirkopt.__all__)) == len(esdirkopt.__all__)
