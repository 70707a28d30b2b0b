"""Names the command-line parser offers, and the error for a refused setting.

The parser's choices for the classical and attribution commands are defined
here, once, and imported by the modules that use them (:mod:`lexisent.ml`,
:mod:`lexisent.attribution`). This module imports nothing, so building the
parser loads no numpy.
"""

#: What ``featurize`` can label entries by.
TASKS = ("pos", "polarity")

#: The ``kind`` of each classical model file.
MODEL_KINDS = ("decision_tree", "random_forest", "gaussian_nb", "linear_svm")

#: Integrated-gradients quadrature schemes.
SCHEMES = ("right", "trapezoid")
# Trapezoid converges at 1/steps^2 versus the right-endpoint sum's 1/steps,
# keeping convergence deltas far below the score difference at modest steps.
DEFAULT_SCHEME = "trapezoid"
DEFAULT_STEPS = 50
BASELINE_KINDS = ("zero", "pad")


class SettingError(ValueError):
    """A training setting that would yield a useless model. ``setting`` is
    the parameter's name and ``problem`` what is wrong with its value."""

    def __init__(self, setting: str, problem: str):
        super().__init__(f"{setting} {problem}")
        self.setting = setting
        self.problem = problem
