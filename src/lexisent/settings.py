"""Names the command-line parser offers, and the error for a refused setting.

The parser's choices for the classical commands, and the step count of the
attribution command, are defined here, once, and imported by the modules that
use them (:mod:`lexisent.ml`, :mod:`lexisent.attribution`). This module
imports nothing, so building the parser loads no numpy.
"""

#: What ``featurize`` can label entries by.
TASKS = ("pos", "polarity")

#: The ``kind`` of each classical model file.
MODEL_KINDS = ("decision_tree", "random_forest", "gaussian_nb", "linear_svm")

#: Integrated-gradients steps along the path, unless ``--steps`` is given.
DEFAULT_STEPS = 50


class SettingError(ValueError):
    """A setting the run cannot use: a training setting that would yield a
    useless model, or an unknown language. ``setting`` is the parameter's
    name and ``problem`` what is wrong with its value."""

    def __init__(self, setting: str, problem: str):
        super().__init__(f"{setting} {problem}")
        self.setting = setting
        self.problem = problem
