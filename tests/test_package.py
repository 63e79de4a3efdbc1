import pulselab
from pulselab import adjustment, recoil, spectral, wavepacket


def test_package_exports_every_module_export():
    modules = (adjustment, recoil, spectral, wavepacket)
    assert sorted(pulselab.__all__) == sorted(name for m in modules for name in m.__all__)
    for name in pulselab.__all__:
        assert getattr(pulselab, name) is next(getattr(m, name) for m in modules if name in m.__all__)
