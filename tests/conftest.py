import pytest

from olepsi.transport import memory_channel_pair


@pytest.fixture
def channel_pair():
    """memory_channel_pair, with every end it made closed when the test ends."""
    ends = []

    def make(*args, **kwargs):
        pair = memory_channel_pair(*args, **kwargs)
        ends.extend(pair)
        return pair

    yield make
    for end in ends:
        end.close()
