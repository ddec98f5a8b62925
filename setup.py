"""Build script: compiles the C kernel, chainsteg._kernel.

Build it in place before running the tests, so the backend-parity tests run
against it (tests/conftest.py also does this when a C compiler is present):

    python setup.py build_ext --inplace

Without the built module, chainsteg runs on its pure-Python backend, which is
much slower at grinding.

The kernel compiles with -O3 alone. Its AVX-512 IFMA and SHA-NI code is
built for those instruction sets function by function, and the kernel
chooses it at run time when the CPU has them, so no compiler flag selects
the fast path and one build runs on any x86-64 CPU.
"""

from setuptools import Extension, setup

setup(
    ext_modules=[
        Extension(
            "chainsteg._kernel",
            sources=["src/chainsteg/_kernel.c"],
            extra_compile_args=["-O3"],
        )
    ]
)
