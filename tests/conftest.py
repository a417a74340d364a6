import tempfile

from hypothesis.configuration import set_hypothesis_home_dir

# Even without a database, hypothesis caches the constants of the collected
# modules (and unicode tables) in its home directory while pytest collects;
# keep that cache in a temporary directory, removed at exit.  Set here, before
# any test module that uses hypothesis is collected.
_HYPOTHESIS_HOME = tempfile.TemporaryDirectory(prefix="hypothesis-")
set_hypothesis_home_dir(_HYPOTHESIS_HOME.name)
