import os

from setuptools import Extension, setup

ext_modules = []
if os.environ.get("PLACEFORGE_PURE") != "1":
    try:
        from Cython.Build import cythonize

        ext_modules = cythonize(
            ["src/placeforge/_kernels/_speedups.pyx"],
            language_level=3,
        )
    except ImportError:
        # No Cython: build the committed C translation of the .pyx.
        ext_modules = [
            Extension("placeforge._kernels._speedups", ["src/placeforge/_kernels/_speedups.c"])
        ]

setup(ext_modules=ext_modules)
