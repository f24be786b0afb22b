"""Oracle implementations the production kernels are tested against.

Nothing here is imported by ``src/``: each module is the plain, slow,
obviously-right formulation of a job that production does with an array
kernel, kept so a property test can demand identical results.
"""
