"""Synthetic census-block population data (Section 4.2).

The paper uses the US Census survey at census-block resolution: 215,932
geographic partition regions in the continental US.  We synthesize an
equivalent corpus: blocks cluster around the gazetteer cities in
proportion to city population (urban component) with a uniform rural
component, and each block carries a population drawn from a lognormal —
the heavy-tailed shape of real block populations.

Only the *relative* population served by each PoP flows into RiskRoute
(the ``c_i`` shares of Section 5.1), so matching the big-city-dominated
spatial distribution is what matters, and that is inherited directly from
the gazetteer weights.
"""

from __future__ import annotations

from functools import lru_cache
import numpy as np

from ..geo.coords import CONTINENTAL_US
from ..geo.regions import Region
from ..topology.cities import ALL_CITIES

__all__ = ["CensusData", "synthetic_census", "PAPER_BLOCK_COUNT"]

#: Number of census blocks in the paper's dataset.
PAPER_BLOCK_COUNT = 215_932

#: Fraction of blocks scattered uniformly (rural America).
_RURAL_FRACTION = 0.25

#: Spread of urban block clusters in miles (metro radius scale).
_URBAN_SPREAD_MILES = 18.0

_DEGREES_PER_MILE_LAT = 1.0 / 69.05


class CensusData:
    """A columnar store of census blocks.

    Holds the blocks as numpy arrays (lat, lon, population) for the
    vectorised nearest-neighbour assignment.
    """

    def __init__(
        self,
        lat: "np.ndarray",
        lon: "np.ndarray",
        population: "np.ndarray",
    ) -> None:
        lat = np.asarray(lat, dtype=np.float64)
        lon = np.asarray(lon, dtype=np.float64)
        population = np.asarray(population, dtype=np.float64)
        if not (lat.shape == lon.shape == population.shape) or lat.ndim != 1:
            raise ValueError("lat, lon, population must be equal-length 1-D")
        if (population < 0).any():
            raise ValueError("block populations must be non-negative")
        self.lat = lat
        self.lon = lon
        self.population = population

    @property
    def block_count(self) -> int:
        """Number of blocks."""
        return int(self.lat.shape[0])

    @property
    def total_population(self) -> float:
        """Sum of all block populations."""
        return float(self.population.sum())

    def restricted_to(self, region: Region) -> "CensusData":
        """Blocks whose location falls inside ``region``.

        Used to confine a regional network's population to its footprint
        states (Section 5.1).
        """
        mask = np.zeros(self.block_count, dtype=bool)
        for box in region.boxes:
            mask |= (
                (self.lat >= box.south)
                & (self.lat <= box.north)
                & (self.lon >= box.west)
                & (self.lon <= box.east)
            )
        return CensusData(self.lat[mask], self.lon[mask], self.population[mask])


@lru_cache(maxsize=None)
def synthetic_census() -> CensusData:
    """Generate (and cache) the synthetic census corpus: the paper's
    :data:`PAPER_BLOCK_COUNT` blocks inside the continental US, from a
    seed that marks the CoNEXT'13 deadline."""
    rng = np.random.default_rng(20130909)

    n_rural = int(PAPER_BLOCK_COUNT * _RURAL_FRACTION)
    n_urban = PAPER_BLOCK_COUNT - n_rural

    # Urban blocks: multinomial split across cities by population weight.
    weights = np.array([c.population for c in ALL_CITIES], dtype=np.float64)
    weights /= weights.sum()
    per_city = rng.multinomial(n_urban, weights)

    lat_parts = []
    lon_parts = []
    sigma_lat = _URBAN_SPREAD_MILES * _DEGREES_PER_MILE_LAT
    for city, count in zip(ALL_CITIES, per_city):
        if count == 0:
            continue
        cos_lat = max(0.05, np.cos(np.radians(city.location.lat)))
        lat_parts.append(rng.normal(city.location.lat, sigma_lat, size=count))
        lon_parts.append(
            rng.normal(city.location.lon, sigma_lat / cos_lat, size=count)
        )

    # Rural blocks: uniform over the continental US.
    lat_parts.append(
        rng.uniform(CONTINENTAL_US.south, CONTINENTAL_US.north, size=n_rural)
    )
    lon_parts.append(
        rng.uniform(CONTINENTAL_US.west, CONTINENTAL_US.east, size=n_rural)
    )

    lat = np.concatenate(lat_parts)
    lon = np.concatenate(lon_parts)
    np.clip(lat, CONTINENTAL_US.south, CONTINENTAL_US.north, out=lat)
    np.clip(lon, CONTINENTAL_US.west, CONTINENTAL_US.east, out=lon)

    # Block populations: heavy-tailed lognormal; rural blocks are smaller.
    population = rng.lognormal(mean=6.0, sigma=1.0, size=PAPER_BLOCK_COUNT)
    population[-n_rural:] *= 0.2

    return CensusData(lat, lon, population)
