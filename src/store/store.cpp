// Explicit instantiations of the common store configurations: catches
// template errors at library-build time rather than first use.
#include "store/all.hpp"

#include "adt/all.hpp"

#include "recovery/all.hpp"

namespace ucw {

template struct KeyedUpdate<SetAdt<int>>;
template struct BatchEnvelope<SetAdt<int>>;
template struct KeySnapshot<SetAdt<int>>;
template struct ShardSnapshot<SetAdt<int>>;
template ShardSnapshot<SetAdt<int>, std::string> encode_shard_snapshot(
    StoreShard<SetAdt<int>>&, std::size_t, std::size_t);
template class StoreShard<SetAdt<int>>;
template class ShardEngine<SetAdt<int>>;
template class ShardEngine<CounterAdt>;
template class SimUcStore<SetAdt<int>>;
template class SimUcStore<CounterAdt>;
template class SimUcStore<RegisterAdt<std::string>>;
template class ThreadUcStore<SetAdt<int>>;
template class ThreadUcStore<CounterAdt>;
template class StoreWorkerPool<ThreadUcStore<SetAdt<int>>>;
template class StoreWorkerPool<ThreadUcStore<CounterAdt>>;
template class MpscRing<int>;
template class SeqlockView<std::set<int>>;
template class SimNetwork<BatchEnvelope<SetAdt<int>>>;
template class ThreadNetwork<BatchEnvelope<CounterAdt>>;

}  // namespace ucw
