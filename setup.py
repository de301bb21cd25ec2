"""Build hook for the optional compiled nearest scan.

`optional=True` turns a failed compile into a warning: the package then
runs on the numpy fallback in `kernels/_kernels_py.py`.
"""

from setuptools import Extension, setup

setup(
    ext_modules=[
        Extension("dispatchsim.kernels._scan", ["src/dispatchsim/kernels/_scan.c"], optional=True)
    ]
)
